package main

import (
	"fmt"
	"math"

	"repro/internal/cascade"
)

// layerMetrics assembles the traced run's per-layer metrics: spans the
// recorders and the generator timed in the traced phase, counters from
// serve and from the reference replay, and the direct probes. It also
// checks the stage sum: the probed stage costs of one sample must
// account for the served cascade.push_ns within the manifest's slack.
func layerMetrics(f *fleet, reps []replayed, plain, tr phase, pr *probes, m manifest) (map[string]metric, []string) {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// serve, from the traced phase and the runtime's counters.
	var qwait, self []float64
	for _, win := range tr.windows {
		for _, d := range win.decisions(f) {
			qwait = append(qwait, float64(d.qwait)/1e3)
			self = append(self, float64(d.self)/1e3)
		}
	}
	var applied, offered int64
	var push, snap, restore span
	var snapBytes int64
	level := 0
	for i, r := range f.recs {
		applied += int64(r.applied)
		offered += f.offered[i]
		push.add(r.pushNs, int(r.pushN))
		snap.add(r.snapNs, int(r.snapN))
		restore.add(r.restoreNs, int(r.restoreN))
		snapBytes += r.snapBytes
		level = max(level, r.ceiling, f.sess[i].BreakerLevel())
	}
	c := f.rt.Counters()
	put("serve.enqueue_ns", ratio(float64(f.enqNs), float64(f.enqN)), "ns")
	put("serve.queue_wait_us", median(qwait), "us")
	put("serve.self_us_per_stride", median(self), "us")
	put("serve.replay_ratio", ratio(float64(applied), float64(offered)), "ratio")
	put("serve.restarts", float64(c.Restarts), "count")
	put("serve.panics", float64(c.Panics), "count")
	put("serve.snapshots", float64(c.Snapshots), "count")
	put("serve.shed", float64(c.Shed), "count")
	put("serve.outbox_dropped", float64(c.OutboxDropped), "count")
	put("serve.breaker_level_max", float64(level), "level")

	// cascade, wrapper-timed in the traced phase and probed directly.
	pushNs := pr.net(push)
	put("cascade.push_ns", pushNs, "ns")
	put("cascade.snapshot_us", pr.net(snap)/1e3, "us")
	put("cascade.restore_us", pr.net(restore)/1e3, "us")
	put("cascade.snapshot_bytes", ratio(float64(snapBytes), float64(snap.n)), "B")
	put("cascade.ingest_push_ns", pr.net(pr.ingestPush), "ns")
	var evals [cascade.NumTiers]int64
	var quarantined, bridged, holdoffs int64
	for _, r := range reps {
		for t, n := range r.evals {
			evals[t] += int64(n)
		}
		quarantined += int64(r.stats.Quarantined)
		bridged += int64(r.stats.Bridged)
		holdoffs += int64(r.stats.Holdoffs)
	}
	for t := 0; t < int(cascade.NumTiers); t++ {
		put(fmt.Sprintf("cascade.decide_push_ns.tier%d", t), pr.net(pr.decide[t]), "ns")
		put(fmt.Sprintf("cascade.evals.tier%d", t), float64(evals[t]), "count")
	}

	// edge, dsp, imu, nn, artifact and falldet probes.
	put("edge.ingest_ns", pr.edgeIngest.per(), "ns")
	put("edge.quarantined", float64(quarantined), "count")
	put("edge.bridged", float64(bridged), "count")
	put("edge.holdoffs", float64(holdoffs), "count")
	put("dsp.filter_ns", pr.filter.per(), "ns")
	put("imu.fusion_ns", pr.fusion.per(), "ns")
	for i, name := range []string{"primary", "fallback"} {
		put("nn.push_ns."+name, pr.nnPush[i].per(), "ns")
		put("nn.score_ns."+name, pr.net(pr.nnScore[i]), "ns")
	}
	put("nn.batch_score_ns.primary", pr.net(pr.batchScore), "ns")
	put("artifact.envelope_us", pr.net(pr.envelope)/1e3, "us")
	put("artifact.read_us", pr.net(pr.read)/1e3, "us")
	put("falldet.load_ms", median(pr.loadMs), "ms")
	put("falldet.build_ms_per_session", pr.build.per()/1e6, "ms")

	// Stage sum and tracing overhead.
	perSample := func(t cascade.Tier) float64 { return ratio(float64(evals[t]), float64(offered)) }
	stages := out["edge.ingest_ns"].Value + out["nn.push_ns.primary"].Value + out["nn.push_ns.fallback"].Value +
		perSample(cascade.TierPrimary)*out["nn.score_ns.primary"].Value +
		perSample(cascade.TierFallback)*out["nn.score_ns.fallback"].Value
	sum := ratio(stages, pushNs)
	put("stage_sum.ratio", sum, "ratio")
	put("trace.overhead_sps", plain.throughput()-tr.throughput(), "samples/s")
	put("trace.clock_ns", pr.clockNs, "ns")

	var problems []string
	if math.Abs(sum-1) > m.StageSum.Slack {
		problems = append(problems, fmt.Sprintf("stage sum %.1f ns is %.3f of cascade.push_ns %.1f ns, outside 1±%.2f",
			stages, sum, pushNs, m.StageSum.Slack))
	}
	fmt.Printf("  stage sum: edge %.1f + nn push %.1f + %.1f + evals/sample %.4f×%.1f + %.4f×%.1f = %.1f ns against cascade.push_ns %.1f ns (%.3f)\n",
		out["edge.ingest_ns"].Value, out["nn.push_ns.primary"].Value, out["nn.push_ns.fallback"].Value,
		perSample(cascade.TierPrimary), out["nn.score_ns.primary"].Value,
		perSample(cascade.TierFallback), out["nn.score_ns.fallback"].Value, stages, pushNs, sum)
	fmt.Printf("  tracing: %.0f samples/s untraced, %.0f traced\n", plain.throughput(), tr.throughput())
	return out, problems
}
