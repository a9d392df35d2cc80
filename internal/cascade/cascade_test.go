package cascade

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/edge"
	"repro/internal/imu"
	"repro/internal/model"
)

// testCfg is the standard geometry used throughout: 400 ms windows at
// 50 % overlap (Window 40, Step 20 at 100 Hz).
var testCfg = Config{WindowMS: 400, Overlap: 0.5}

func newTestCascade(t *testing.T, cfg Config) *Cascade {
	t.Helper()
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(primary, fallback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// quiet returns a gently varying upright sample (≈1 g, small rates)
// that never trips stuck detection or the threshold floor.
func quiet(i int) (imu.Vec3, imu.Vec3) {
	ph := float64(i) * 0.13
	return imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1 + 0.02*math.Cos(ph)},
		imu.Vec3{X: 3 * math.Sin(ph), Y: 2 * math.Cos(ph)}
}

func TestCascadeHealthyStaysPrimary(t *testing.T) {
	c := newTestCascade(t, testCfg)
	evals := 0
	for i := 0; i < 400; i++ {
		acc, gyro := quiet(i)
		d := c.Push(acc, gyro)
		if d.SupervisorTier != TierPrimary {
			t.Fatalf("sample %d: supervisor at %v on a healthy stream", i, d.SupervisorTier)
		}
		if d.Evaluated {
			evals++
			if i >= c.Window() && d.Tier != TierPrimary {
				t.Fatalf("sample %d: decision from %v on a healthy stream", i, d.Tier)
			}
		}
	}
	if evals == 0 {
		t.Fatal("no decisions on a healthy stream")
	}
	te := c.TierEvals()
	if te[TierFallback] != 0 {
		t.Fatalf("fallback evaluated %d times on a healthy stream", te[TierFallback])
	}
}

func TestCascadeGyroDeathDemotesToFallbackAndRecovers(t *testing.T) {
	c := newTestCascade(t, testCfg)
	for i := 0; i < 200; i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
	}
	if c.SupervisorTier() != TierPrimary {
		t.Fatalf("warm-up ended at %v", c.SupervisorTier())
	}
	// Gyro dies. The supervisor must leave tier 0 once the gyro group
	// faults, and decisions must keep flowing from the fallback.
	bad := imu.Vec3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}
	sawFallback := false
	for i := 200; i < 500; i++ {
		acc, _ := quiet(i)
		d := c.Push(acc, bad)
		if d.Evaluated && d.Tier == TierFallback {
			sawFallback = true
		}
		if d.Evaluated && d.Tier == TierPrimary && i > 220 {
			t.Fatalf("sample %d: primary still deciding with a dead gyro", i)
		}
	}
	if !sawFallback {
		t.Fatal("fallback never produced a decision under a dead gyro")
	}
	if got := c.SupervisorTier(); got != TierFallback {
		t.Fatalf("supervisor at %v under a gyro-only fault, want %v", got, TierFallback)
	}
	// Gyro recovers: promotion back to primary requires a full
	// hysteresis window of clean samples.
	recoveredAt := -1
	for i := 500; i < 1200; i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
		if c.SupervisorTier() == TierPrimary {
			recoveredAt = i
			break
		}
	}
	if recoveredAt < 0 {
		t.Fatal("supervisor never promoted back after gyro recovery")
	}
	if recoveredAt < 500+c.Window() {
		t.Fatalf("promoted after only %d samples, want ≥ the %d-sample hysteresis window",
			recoveredAt-500, c.Window())
	}
}

func TestCascadeDeadAccStillDecides(t *testing.T) {
	c := newTestCascade(t, testCfg)
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
	}
	// Total sensor loss: every subsequent sample is quarantined. The
	// base pipeline stops ingesting entirely — the cascade must keep
	// the decision cadence alive from the threshold floor.
	bad := imu.Vec3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}
	evals, run := 0, 0
	for i := 0; i < 300; i++ {
		d := c.Push(bad, bad)
		if d.Evaluated {
			evals++
			run = 0
			if d.Tier != TierThreshold {
				t.Fatalf("tier %v decided off a fully dead sensor", d.Tier)
			}
			if d.Triggered {
				t.Fatal("threshold floor triggered on absence of data")
			}
		} else if run++; run > c.Step() {
			t.Fatalf("no decision for %d consecutive pushes during total sensor loss", run)
		}
	}
	if evals == 0 {
		t.Fatal("no decisions during total sensor loss")
	}
	if got := c.SupervisorTier(); got != TierThreshold {
		t.Fatalf("supervisor at %v under total sensor loss", got)
	}
}

func TestCascadeMissingSamplesKeepDecisionCadence(t *testing.T) {
	c := newTestCascade(t, testCfg)
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
	}
	run := 0
	sawEval := false
	for i := 0; i < 10; i++ {
		// Long alternating outage: bursts far beyond the bridge limit.
		for j := 0; j < 15; j++ {
			d := c.PushMissing(1)
			if d.Evaluated {
				sawEval, run = true, 0
			} else if run++; run > c.Step() {
				t.Fatalf("no decision for %d pushes across a missing-sample outage", run)
			}
		}
		for j := 0; j < 7; j++ {
			acc, gyro := quiet(i*22 + j)
			d := c.Push(acc, gyro)
			if d.Evaluated {
				sawEval, run = true, 0
			} else if run++; run > c.Step() {
				t.Fatalf("no decision for %d pushes across a flapping outage", run)
			}
		}
	}
	if !sawEval {
		t.Fatal("no decisions at all during the outage pattern")
	}
}

func TestCascadeBudgetCapsTier(t *testing.T) {
	dev := edge.STM32F722()
	budget := dev.ClockHz / 100          // cycles per 10 ms sample period
	huge := edge.Cost{MACs: int(budget)} // MACs alone ≫ budget at 8 cyc/MAC

	cfg := testCfg
	cfg.PrimaryCost = huge
	c := newTestCascade(t, cfg)
	if c.MinTier() != TierFallback {
		t.Fatalf("MinTier = %v with an over-budget primary, want %v", c.MinTier(), TierFallback)
	}
	for i := 0; i < 400; i++ {
		acc, gyro := quiet(i)
		d := c.Push(acc, gyro)
		if d.SupervisorTier < TierFallback {
			t.Fatal("supervisor selected a tier the cycle budget forbids")
		}
		if d.Evaluated && d.Tier < TierFallback {
			t.Fatal("decision came from a tier the cycle budget forbids")
		}
	}

	cfg.FallbackCost = huge
	c2 := newTestCascade(t, cfg)
	if c2.MinTier() != TierThreshold {
		t.Fatalf("MinTier = %v with both models over budget", c2.MinTier())
	}
	if c2.WorstCaseCycles() > c2.BudgetCycles() {
		t.Fatalf("worst-case %g cycles exceeds the %g-cycle budget",
			c2.WorstCaseCycles(), c2.BudgetCycles())
	}
}

func TestCascadeWithinBudgetByDefault(t *testing.T) {
	// The acceptance criterion: with the real model costs, the
	// supervisor's worst-case per-sample cycles stay under the 10 ms @
	// 216 MHz sample budget.
	rng := rand.New(rand.NewSource(1))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := edge.ModelCost(primary.Net, []int{40, imu.NumChannels})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := edge.ModelCost(fallback.Net, []int{40, imu.NumChannels})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg
	cfg.PrimaryCost, cfg.FallbackCost = pc, fc
	c, err := New(primary, fallback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.MinTier() != TierPrimary {
		t.Fatalf("paper CNN does not fit the sample budget: MinTier %v", c.MinTier())
	}
	if c.WorstCaseCycles() > c.BudgetCycles() {
		t.Fatalf("worst-case %g cycles exceeds the %g-cycle budget",
			c.WorstCaseCycles(), c.BudgetCycles())
	}
	if c.PerSampleCycles(TierFallback) >= c.PerSampleCycles(TierPrimary) {
		t.Fatal("fallback modeled as expensive as the primary")
	}
}

func TestCascadeNilFallbackFallsThrough(t *testing.T) {
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(primary, nil, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
	}
	bad := imu.Vec3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}
	for i := 100; i < 400; i++ {
		acc, _ := quiet(i)
		d := c.Push(acc, bad)
		if d.Evaluated && d.Tier == TierFallback {
			t.Fatal("nil fallback produced a decision")
		}
	}
}

func TestCascadeResetClearsState(t *testing.T) {
	c := newTestCascade(t, testCfg)
	bad := imu.Vec3{X: math.NaN()}
	for i := 0; i < 300; i++ {
		c.Push(bad, bad)
	}
	c.Reset()
	if c.SupervisorTier() != c.MinTier() {
		t.Fatal("Reset did not restore the supervisor tier")
	}
	if te := c.TierEvals(); te != ([NumTiers]int{}) {
		t.Fatalf("Reset left tier counters %v", te)
	}
	for i := 0; i < 400; i++ {
		acc, gyro := quiet(i)
		d := c.Push(acc, gyro)
		if d.Evaluated && i >= c.Window() && d.Tier != TierPrimary {
			t.Fatalf("post-Reset decision from %v", d.Tier)
		}
	}
}

func TestTierString(t *testing.T) {
	if TierPrimary.String() == "" || TierFallback.String() == "" ||
		TierThreshold.String() == "" || Tier(9).String() == "" {
		t.Fatal("tier names")
	}
}

// TestThresholdFloorProbabilitiesPinned pins the probabilities the
// threshold floor decides with, bit for bit, on a stream of quiet
// wear, free fall, whole missing strides and free fall again. The
// floor scores only when it decides, so its probability must be the
// one an every-sample score would have reported at that sample.
func TestThresholdFloorProbabilitiesPinned(t *testing.T) {
	c := newTestCascade(t, testCfg)
	c.SetTierCeiling(TierThreshold)
	want := []uint64{
		0x3fae00be6348f268, 0x3fb03e837602f4eb, 0x3fad59982982f743, // quiet
		0x3fee61e341cfd3cf, 0x3feffe968dd58ec1, // free fall
		0x3fb36b7112534847, 0x3fb36b7112534847, 0x3fb36b7112534847, 0x3fb36b7112534847, // PushMissing(Step)
		0x3feffff82f4698c9, // free fall
	}
	var got []uint64
	record := func(d Decision) {
		if !d.Evaluated {
			return
		}
		if d.Tier != TierThreshold {
			t.Fatalf("decision %d from %v under a threshold ceiling", len(got), d.Tier)
		}
		got = append(got, math.Float64bits(d.Probability))
	}
	for i := 0; i < 60; i++ {
		acc, gyro := quiet(i)
		record(c.Push(acc, gyro))
	}
	for i := 0; i < 40; i++ {
		_, gyro := quiet(i)
		record(c.Push(imu.Vec3{X: 0.1, Z: 0.25}, gyro))
	}
	for i := 0; i < 4; i++ {
		record(c.PushMissing(c.Step()))
	}
	for i := 0; i < 30; i++ {
		_, gyro := quiet(i)
		record(c.Push(imu.Vec3{Z: 0.3}, gyro))
	}
	if len(got) != len(want) {
		t.Fatalf("%d floor decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d: probability %#016x (%g), want %#016x (%g)",
				i, got[i], math.Float64frombits(got[i]), want[i], math.Float64frombits(want[i]))
		}
	}
}
