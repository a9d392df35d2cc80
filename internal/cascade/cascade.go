// Package cascade layers a supervised detector cascade over the
// streaming edge pipeline so that sensor failure degrades the detector
// tier by tier instead of blinding it. The base pipeline fails closed:
// when its health ring trips HealthFaulted it stops evaluating, and a
// fall during the outage is missed — the most expensive outcome for a
// pre-impact airbag. The cascade keeps a decision flowing:
//
//	tier 0 — the primary three-branch CNN (paper §III-B), used while
//	         every channel group is trustworthy;
//	tier 1 — a reduced-input CNN reading only the accelerometer
//	         columns (model.KindCNNAccel), used while the gyro or the
//	         fused Euler attitude is quarantined or stuck;
//	tier 2 — a deterministic accel-magnitude + vertical-velocity
//	         threshold detector that needs no window, no filters and
//	         no model, and therefore always runs.
//
// A supervisor state machine moves between tiers one step at a time:
// demotion is immediate when the current tier's health requirement
// fails, promotion requires the better tier's requirements to hold for
// a full hysteresis window, and a per-sample cycle budget against the
// Cortex-M7 device model caps how ambitious a tier the supervisor may
// ever select. Push is allocation-free at steady state in every tier
// and fully deterministic.
package cascade

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Tier identifies one cascade level; lower is more capable.
type Tier int

const (
	// TierPrimary is the full three-branch CNN.
	TierPrimary Tier = iota
	// TierFallback is the accelerometer-branch-only CNN.
	TierFallback
	// TierThreshold is the streaming threshold floor; it always runs.
	TierThreshold
	// NumTiers is the tier count.
	NumTiers
)

func (t Tier) String() string {
	switch t {
	case TierPrimary:
		return "primary-cnn"
	case TierFallback:
		return "accel-cnn"
	case TierThreshold:
		return "threshold"
	default:
		return "tier(?)"
	}
}

// Config sizes the cascade. The streaming geometry mirrors
// edge.DetectorConfig; the cost fields feed the supervisor's
// per-sample cycle budget.
type Config struct {
	// WindowMS and Overlap mirror the training segmentation.
	WindowMS int
	Overlap  float64
	// Threshold is the trigger probability, with the edge sentinel
	// convention: 0 selects edge.DefaultThreshold, negative values
	// select a literal 0.
	Threshold float64
	// FixedPoint selects the Q16.16 pre-filter.
	FixedPoint bool
	// FullScaleG / FullScaleDPS are the sensor clamp ranges (0 = the
	// edge defaults, ±16 g and ±2000 deg/s).
	FullScaleG   float64
	FullScaleDPS float64
	// Device is the deployment target for the cycle budget; the zero
	// value selects edge.STM32F722().
	Device edge.Device
	// PrimaryCost and FallbackCost are the modeled inference costs of
	// the tier-0 and tier-1 classifiers (edge.ModelCost). A zero cost
	// models a free classifier, so callers who want budget enforcement
	// must supply them.
	PrimaryCost, FallbackCost edge.Cost
	// PromoteHoldSamples is the hysteresis: how many consecutive
	// samples the better tier's requirements must hold before the
	// supervisor promotes. Default: one full window.
	PromoteHoldSamples int
}

// CascadeOf is the supervised three-tier detector at scalar width S.
// Only the streaming pipeline and its attached scorers run at S; the
// supervisor state machine, the cycle-budget model and the threshold
// floor are width-independent (the floor integrates raw float64
// samples — it must not inherit the model tier's rounding). Cascade
// (= CascadeOf[float64]) is the reference instantiation.
type CascadeOf[S tensor.Scalar] struct {
	det *edge.DetectorOf[S]
	//fallvet:derived immutable tier-0 model reference, bound at construction; snapshots carry detector and cascade state, not weights
	primary   model.Classifier
	fallback  model.Classifier
	threshold float64

	t2  tier2
	sup supervisor

	// ceiling is an externally-imposed cap on tier capability: the
	// supervisor's choice is clamped to max(choice, ceiling). A serving
	// runtime's latency breaker raises it when wall-clock decision
	// latency approaches the airbag budget — the health-driven state
	// machine knows nothing about host scheduling. TierPrimary (the
	// zero value) imposes nothing.
	ceiling Tier

	samples   int // pushes seen (real + missing)
	sinceEval int // pushes since the last emitted decision

	//fallvet:derived modeled worst-case cycles per sample, fixed by New from the device model and classifier costs
	perSample [NumTiers]float64
	//fallvet:derived cycles available per sample period, fixed by New from the device model
	budget    float64
	tierEvals [NumTiers]int

	// snapScratch stages the snapshot payload between checkpoints so
	// AppendSnapshot allocates nothing once it has grown to size.
	snapScratch []byte
}

// Cascade is the float64 reference cascade — the exact pre-generic
// behaviour, and the width all evaluation and training tooling uses.
type Cascade = CascadeOf[float64]

// New builds a cascade around the primary classifier. fallback may be
// nil, in which case tier 1 falls through to the threshold floor.
func New(primary, fallback model.Classifier, cfg Config) (*Cascade, error) {
	return NewOf[float64](primary, fallback, cfg)
}

// NewOf builds the cascade at scalar width S; see DESIGN.md §14 for
// the precision model. Tiers passed as *edge.CompiledOf stream from
// their shared compiled programs, so the cascade allocates only its
// own rings; bare network models are compiled for this cascade alone.
// A fallback the streamer cannot compile keeps scoring in batch form
// through an exact widening, like any other unattached classifier.
func NewOf[S tensor.Scalar](primary, fallback model.Classifier, cfg Config) (*CascadeOf[S], error) {
	if primary == nil {
		return nil, fmt.Errorf("cascade: nil primary classifier")
	}
	det, err := edge.NewDetectorOf[S](primary, edge.DetectorConfig{
		WindowMS:     cfg.WindowMS,
		Overlap:      cfg.Overlap,
		Threshold:    cfg.Threshold,
		FixedPoint:   cfg.FixedPoint,
		FullScaleG:   cfg.FullScaleG,
		FullScaleDPS: cfg.FullScaleDPS,
	})
	if err != nil {
		return nil, err
	}
	thr := cfg.Threshold
	switch {
	case thr == 0:
		thr = edge.DefaultThreshold
	case thr < 0:
		thr = 0
	}
	dev := cfg.Device
	if dev.Name == "" {
		dev = edge.STM32F722()
	}
	c := &CascadeOf[S]{
		det:       det,
		primary:   primary,
		fallback:  fallback,
		threshold: thr,
		t2:        newTier2(),
		budget:    dev.ClockHz / dataset.SampleRate,
	}
	if fallback != nil && !det.AttachStream(fallback) {
		// Best-effort: a fallback the streamer cannot cache (MLP,
		// recurrent) simply keeps scoring in batch form via
		// ScoreWindow, bit-identically. The primary is attached by
		// NewDetector itself.
		if _, ok := fallback.(*edge.CompiledOf[S]); ok {
			return nil, fmt.Errorf("cascade: fallback was compiled for another stream geometry")
		}
	}
	c.perSample[TierPrimary] = dev.FusionCyclesPerSample + inferenceCycles(dev, cfg.PrimaryCost)
	c.perSample[TierFallback] = dev.FusionCyclesPerSample + inferenceCycles(dev, cfg.FallbackCost)
	c.perSample[TierThreshold] = dev.FusionCyclesPerSample + tier2Cycles
	minTier := TierThreshold
	for t := TierPrimary; t < TierThreshold; t++ {
		if c.perSample[t] <= c.budget {
			minTier = t
			break
		}
	}
	if minTier == TierFallback && fallback == nil {
		minTier = TierThreshold
	}
	hold := cfg.PromoteHoldSamples
	if hold <= 0 {
		hold = det.Window
	}
	c.sup = supervisor{tier: minTier, minTier: minTier, promoteHold: hold}
	return c, nil
}

// Reset clears all cascade state: the pipeline, the threshold floor,
// the supervisor and the tier counters. The tier ceiling survives — it
// is operator input about the host, not stream state.
func (c *CascadeOf[S]) Reset() {
	c.det.Reset()
	c.t2.reset()
	c.sup.reset()
	c.samples = 0
	c.sinceEval = 0
	for i := range c.tierEvals {
		c.tierEvals[i] = 0
	}
}

// Detector exposes the underlying streaming pipeline (health, stats,
// window geometry). The cascade owns its ingestion — do not Push into
// the returned detector directly.
func (c *CascadeOf[S]) Detector() *edge.DetectorOf[S] { return c.det }

// SupervisorTier reports the tier the supervisor currently selects,
// before the ceiling clamp.
func (c *CascadeOf[S]) SupervisorTier() Tier { return c.sup.tier }

// SetTierCeiling caps how capable a tier the cascade may decide with:
// decisions use max(supervisor tier, ceiling). Out-of-range values are
// clamped. SetTierCeiling(TierPrimary) removes the cap.
func (c *CascadeOf[S]) SetTierCeiling(t Tier) {
	if t < TierPrimary {
		t = TierPrimary
	}
	if t > TierThreshold {
		t = TierThreshold
	}
	c.ceiling = t
}

// TierCeiling reports the current externally-imposed tier cap.
func (c *CascadeOf[S]) TierCeiling() Tier { return c.ceiling }

// MinTier reports the most capable tier the cycle budget permits.
func (c *CascadeOf[S]) MinTier() Tier { return c.sup.minTier }

// TierEvals reports how many decisions each tier has produced since
// the last Reset.
func (c *CascadeOf[S]) TierEvals() [NumTiers]int { return c.tierEvals }

// BudgetCycles is the cycle budget of one sample period on the
// configured device.
func (c *CascadeOf[S]) BudgetCycles() float64 { return c.budget }

// PerSampleCycles is the modeled worst-case per-sample cost (fusion +
// inference) of running the given tier.
func (c *CascadeOf[S]) PerSampleCycles(t Tier) float64 {
	if t < 0 || t >= NumTiers {
		return 0
	}
	return c.perSample[t]
}

// WorstCaseCycles is the modeled worst-case per-sample cost over every
// tier the supervisor can select — the number that must stay under
// BudgetCycles for the 10 ms sample period to hold.
func (c *CascadeOf[S]) WorstCaseCycles() float64 {
	worst := 0.0
	for t := c.sup.minTier; t < NumTiers; t++ {
		if c.perSample[t] > worst {
			worst = c.perSample[t]
		}
	}
	return worst
}

// Decision is one Push outcome. Exactly like the base pipeline, most
// pushes fall between stride boundaries and carry Evaluated=false —
// the guarantee is that decisions keep flowing at stride cadence: once
// the stream is Step samples old, every run of Step consecutive pushes
// contains at least one Evaluated decision, whatever the sensor does.
type Decision struct {
	// Evaluated is true when this push produced a decision.
	Evaluated bool
	// Tier is the tier that produced the decision (valid when
	// Evaluated). It can be worse than SupervisorTier when the
	// preferred tier's window is not scorable this instant, never
	// better.
	Tier Tier
	// Probability is the deciding tier's output when Evaluated.
	Probability float64
	// Triggered is true when the probability crossed the threshold.
	Triggered bool
	// SupervisorTier is the effective tier after this sample: the
	// supervisor's health-driven choice, clamped by any external tier
	// ceiling (SetTierCeiling).
	SupervisorTier Tier
	// Health is the overall pipeline state; Groups the per-channel-
	// group breakdown driving the supervisor.
	Health edge.Health
	Groups edge.GroupHealth
	// Quarantined and Clamped mirror the base pipeline flags.
	Quarantined bool
	Clamped     bool
}

// Push ingests one raw sample and always advances the cascade: the
// threshold floor updates, the pipeline ingests (quarantine, clamp,
// filter, per-group health), the supervisor steps at most one tier,
// and at decision cadence the best currently-scorable tier at or below
// the supervisor's choice produces the decision.
//
//fallvet:hotpath
func (c *CascadeOf[S]) Push(acc, gyro imu.Vec3) Decision {
	c.t2.push(acc)
	r := c.det.Ingest(acc, gyro)
	return c.decide(r)
}

// PushMissing accounts for n samples the sensor failed to deliver.
// The returned Decision reflects the last missing sample.
//
//fallvet:hotpath
func (c *CascadeOf[S]) PushMissing(n int) Decision {
	var d Decision
	d.Health = c.det.Health()
	d.Groups = c.det.GroupHealth()
	d.SupervisorTier = c.sup.tier
	if c.ceiling > d.SupervisorTier {
		d.SupervisorTier = c.ceiling
	}
	for i := 0; i < n; i++ {
		c.t2.missing()
		r := c.det.IngestMissing(1)
		d = c.decide(r)
	}
	return d
}

// decide runs the supervisor and, at decision cadence, scores the best
// available tier. The threshold floor's state advances every sample,
// so its score is live window or no window; it is computed only when
// the floor decides.
//
//fallvet:hotpath
func (c *CascadeOf[S]) decide(r edge.Result) Decision {
	c.samples++
	c.sinceEval++
	g := c.det.GroupHealth()
	supTier := c.sup.step(r.Health, g)
	if c.ceiling > supTier {
		// The host-imposed ceiling caps capability; the supervisor's
		// own state machine keeps stepping underneath it, so lifting
		// the ceiling returns to wherever health says the cascade
		// belongs.
		supTier = c.ceiling
	}
	d := Decision{
		SupervisorTier: supTier,
		Health:         r.Health,
		Groups:         g,
		Quarantined:    r.Quarantined,
		Clamped:        r.Clamped,
	}
	evalTier := NumTiers // sentinel: no decision this push
	if c.det.StrideReady() {
		evalTier = supTier
		for evalTier < TierThreshold && !c.tierScorable(evalTier, r.Health, g) {
			evalTier++
		}
	} else if c.sinceEval >= c.det.Step && c.samples >= c.det.Step {
		// Decision-guarantee backstop: stride boundaries are counted in
		// ingested samples, and a long outage (dead accelerometer, bus
		// stall) stops ingestion entirely — the base pipeline would
		// simply never evaluate again. The threshold floor needs no
		// window, so it keeps the decision cadence alive.
		evalTier = TierThreshold
	}
	if evalTier == NumTiers {
		return d
	}
	var p float64
	ok := true
	switch evalTier {
	case TierPrimary:
		p, ok = c.det.ScoreWindow(c.primary)
	case TierFallback:
		p, ok = c.det.ScoreWindow(c.fallback)
	case TierThreshold:
		p = c.t2.score()
	}
	d.Evaluated = true
	d.Tier = evalTier
	d.Probability = p
	d.Triggered = ok && p >= c.threshold
	c.tierEvals[evalTier]++
	c.sinceEval = 0
	return d
}

// tierScorable reports whether a model tier can honestly score the
// current ring buffer: the window must be fresh (no unpaid warm-up)
// and the faults present must be ones the tier does not escape anyway.
// The conditions mirror supervisor.stayOK — a quarantined-but-present
// accelerometer (stuck axis, drifting baseline) does not unscore the
// CNN tiers, because no tier in the cascade escapes the accelerometer;
// real data loss (overall ring faulted) unscores both model tiers.
//
//fallvet:hotpath
func (c *CascadeOf[S]) tierScorable(t Tier, overall edge.Health, g edge.GroupHealth) bool {
	switch t {
	case TierPrimary:
		return c.det.WindowFresh() && overall != edge.HealthFaulted &&
			g.Gyro != edge.HealthFaulted
	case TierFallback:
		return c.fallback != nil && c.det.WindowFresh() &&
			(g.Acc != edge.HealthFaulted || overall != edge.HealthFaulted)
	case TierThreshold:
		return true
	}
	return true // tiers are clamped to [TierPrimary, TierThreshold]
}

// tier2Cycles is the modeled per-sample cost of the threshold floor: a
// magnitude, a compare, an integrator update and a logistic — noise
// next to sensor fusion, but accounted so the budget math is honest.
const tier2Cycles = 64

// inferenceCycles converts a modeled inference cost to cycles on dev.
func inferenceCycles(dev edge.Device, c edge.Cost) float64 {
	return float64(c.MACs)*dev.CyclesPerMAC +
		float64(c.Elems)*dev.CyclesPerElem +
		float64(c.Layers)*dev.LayerOverheadCycles
}

// tier2 is the streaming threshold floor: the de Sousa-style free-fall
// + vertical-velocity test of model.Threshold (KindThresholdAcc),
// restated causally so it needs no window. It consumes the raw
// accelerometer sample before filters or normalisation — it must keep
// working when the ring buffer cannot be trusted at all.
type tier2 struct {
	//fallvet:derived threshold-floor parameter, fixed at construction (model.NewThreshold nominal); only run/vel are stream state
	lowG float64
	//fallvet:derived threshold-floor parameter, fixed at construction (model.NewThreshold nominal); only run/vel are stream state
	minRun int
	//fallvet:derived threshold-floor parameter, fixed at construction (model.NewThreshold nominal); only run/vel are stream state
	velThresh float64

	run int     // consecutive sub-lowG samples so far
	vel float64 // integrated vertical-velocity estimate, m/s
}

func newTier2() tier2 {
	// model.NewThreshold(KindThresholdAcc) nominal parameters.
	return tier2{lowG: 0.6, minRun: 3, velThresh: 0.7}
}

func (t *tier2) reset() {
	t.run = 0
	t.vel = 0
}

//fallvet:hotpath
func finiteAcc(v imu.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// push ingests one raw accelerometer sample (g).
//
//fallvet:hotpath
func (t *tier2) push(acc imu.Vec3) {
	if !finiteAcc(acc) {
		t.missing()
		return
	}
	mag := math.Sqrt(acc.X*acc.X + acc.Y*acc.Y + acc.Z*acc.Z)
	if mag < t.lowG {
		t.run++
	} else {
		t.run = 0
	}
	// Free fall accumulates downward speed at (1−|a|)·g₀; re-support
	// (|a| ≥ 1 g) drains the integrator, exactly as model.Threshold
	// computes it per window.
	t.vel += (1 - mag) * imu.StandardGravity / dataset.SampleRate
	if t.vel < 0 || math.IsNaN(t.vel) {
		t.vel = 0
	}
}

// missing handles a sample the sensor failed to deliver: no free-fall
// evidence can be claimed for it, so the run resets and the integrator
// holds. A dead accelerometer therefore converges to probability < 0.5
// — conservative by construction, the floor cannot false-fire off
// absence of data.
//
//fallvet:hotpath
func (t *tier2) missing() {
	t.run = 0
}

// score is the floor's current probability, a pure function of run
// and vel.
//
//fallvet:hotpath
func (t *tier2) score() float64 {
	freefall := float64(t.run-t.minRun) + 0.5
	second := (t.vel - t.velThresh) * 4
	margin := math.Min(freefall, second)
	return 1 / (1 + math.Exp(-margin))
}

// TrialSim is the outcome of replaying one trial through the cascade,
// mirroring edge.TrialSim with per-tier decision accounting.
type TrialSim struct {
	Triggered     bool
	TriggerSample int
	LeadTimeMS    float64
	InTime        bool
	FalseAlarm    bool
	// TriggerTier is the tier whose decision fired (valid when
	// Triggered).
	TriggerTier Tier
	// TierEvals counts decisions per tier up to the trigger (or trial
	// end).
	TierEvals [NumTiers]int
}

// Simulate replays a clean trial; see SimulateFaulty.
func (c *CascadeOf[S]) Simulate(t *dataset.Trial) TrialSim {
	return c.SimulateFaulty(t, nil)
}

// SimulateFaulty replays a trial through the cascade with a fault
// injector between the recorded sensor and the pipeline, exactly as
// edge.Detector.SimulateFaulty does: drops become missing samples,
// repeats are pushed twice, corruption is pushed as-is. The replay
// stops at the first trigger.
func (c *CascadeOf[S]) SimulateFaulty(t *dataset.Trial, inj fault.Injector) TrialSim {
	c.Reset()
	if inj != nil {
		inj.Reset()
	}
	sim := TrialSim{TriggerSample: -1}
	for i, s := range t.Samples {
		var d Decision
		if inj == nil {
			d = c.Push(s.Acc, s.Gyro)
		} else {
			cs, eff := inj.Apply(s)
			switch eff {
			case fault.Drop:
				d = c.PushMissing(1)
			case fault.Repeat:
				c.Push(cs.Acc, cs.Gyro)
				d = c.Push(cs.Acc, cs.Gyro)
			case fault.Pass:
				d = c.Push(cs.Acc, cs.Gyro)
			}
		}
		if d.Triggered && sim.TriggerSample < 0 {
			sim.Triggered = true
			sim.TriggerSample = i
			sim.TriggerTier = d.Tier
			if !t.IsFall() {
				sim.FalseAlarm = true
			}
			break
		}
	}
	sim.TierEvals = c.tierEvals
	if t.IsFall() && sim.Triggered {
		sim.LeadTimeMS = float64(t.Impact-sim.TriggerSample) * 1000 / dataset.SampleRate
		sim.InTime = sim.LeadTimeMS >= dataset.AirbagInflationMS
	}
	return sim
}

// Step exposes the decision cadence in samples.
func (c *CascadeOf[S]) Step() int { return c.det.Step }

// Window exposes the window length in samples.
func (c *CascadeOf[S]) Window() int { return c.det.Window }
