package falldet

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Precision selects the compiled scalar width of a streaming pipeline.
// Training always runs float64 and produces one float64 checkpoint;
// the precision choice is made at deployment time, when the detector
// is wrapped in a streaming pipeline. Each Detector compiles its model
// once per width, on the first pipeline at that width — at float32
// that lowers the checkpoint's weights — and every pipeline built from
// it shares the compiled program read-only, keeping only its own rings.
// See DESIGN.md §14 for what stays float64 at every width (filter
// accumulators, sensor health, training, metrics).
type Precision int

const (
	// PrecisionF64 is the double-precision reference pipeline — the
	// default, bit-identical to the pre-generic implementation.
	PrecisionF64 Precision = iota
	// PrecisionF32 is the lowered single-precision deployment
	// pipeline.
	PrecisionF32
)

// String names the precision the way results headers spell it.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// ParsePrecision reads the spellings String produces ("f64", "f32";
// "float64"/"float32" are accepted as aliases).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("falldet: unknown precision %q (want f64 or f32)", s)
}

// Float32 streaming surface, mirroring the float64 re-exports.
type (
	// StreamDetectorF32 is the real-time pipeline compiled at float32.
	StreamDetectorF32 = edge.DetectorOf[float32]
	// StreamCascadeF32 is the supervised three-tier pipeline compiled
	// at float32.
	StreamCascadeF32 = cascade.CascadeOf[float32]
)

// StreamF32 wraps the detector in a float32 streaming pipeline: the
// float64 checkpoint's weights are lowered on the first call and
// shared by every later one, and every window scores in single
// precision. The float64 training artefact is untouched — Stream and
// StreamF32 can coexist on one Detector.
func (det *Detector) StreamF32() (*StreamDetectorF32, error) {
	return streamAt[float32](det, compiledAt[float32](det))
}

// streamAt is streamWith at an arbitrary compiled width.
func streamAt[S tensor.Scalar](det *Detector, clf model.Classifier) (*edge.DetectorOf[S], error) {
	cfg := det.edgeConfig()
	if cfg.Threshold == 0 {
		cfg.Threshold = edge.ThresholdAlways
	}
	return edge.NewDetectorOf[S](clf, cfg)
}

// edgeConfig is the streaming geometry and threshold det was trained
// or loaded with.
func (det *Detector) edgeConfig() edge.DetectorConfig {
	return edge.DetectorConfig{
		WindowMS:  det.cfg.WindowMS,
		Overlap:   det.cfg.Overlap,
		Threshold: det.cfg.Threshold,
	}
}

// compiledAt returns det's classifier for pipelines at width S: its
// model compiled for streaming on the first call at S (edge.CompileOf)
// and shared read-only by every pipeline since, or the bare model when
// it has no streaming form.
func compiledAt[S tensor.Scalar](det *Detector) model.Classifier {
	lc := &det.compiled[0]
	if !tensor.Is64[S]() {
		lc = &det.compiled[1]
	}
	lc.once.Do(func() {
		lc.clf = det.model
		if nm, ok := det.model.(*model.NetModel); ok {
			if c, err := edge.CompileOf[S](nm, det.edgeConfig()); err == nil {
				lc.clf = c
			}
		}
	})
	return lc.clf
}

// StreamF32 instantiates the supervised cascade at float32; both CNN
// tiers are lowered on the first call and shared by every later one,
// and the threshold floor and the supervisor are width-independent.
func (cd *CascadeDetector) StreamF32() (*StreamCascadeF32, error) {
	return cascadeStreamAt[float32](cd, compiledAt[float32](cd.primary), compiledAt[float32](cd.fallback))
}

// cascadeStreamAt is CascadeDetector.streamWith at an arbitrary
// compiled width.
func cascadeStreamAt[S tensor.Scalar](cd *CascadeDetector, primary, fallback model.Classifier) (*cascade.CascadeOf[S], error) {
	winSamples := cd.primary.cfg.WindowMS * dataset.SampleRate / 1000
	shape := []int{winSamples, imu.NumChannels}
	cfg := cascade.Config{
		WindowMS: cd.primary.cfg.WindowMS,
		Overlap:  cd.primary.cfg.Overlap,
	}
	cfg.Threshold = cd.primary.cfg.Threshold
	if cfg.Threshold == 0 {
		cfg.Threshold = edge.ThresholdAlways
	}
	if nm, ok := cd.primary.model.(*model.NetModel); ok {
		cost, err := edge.ModelCost(nm.Net, shape)
		if err != nil {
			return nil, err
		}
		cfg.PrimaryCost = cost
	}
	if nm, ok := cd.fallback.model.(*model.NetModel); ok {
		cost, err := edge.ModelCost(nm.Net, shape)
		if err != nil {
			return nil, err
		}
		cfg.FallbackCost = cost
	}
	return cascade.NewOf[S](primary, fallback, cfg)
}

// evalRobustnessAt is EvaluateRobustness compiled at width S.
func evalRobustnessAt[S tensor.Scalar](det *Detector, d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	dets := make([]*edge.DetectorOf[S], w)
	for i := range dets {
		clf := compiledAt[S](det)
		if nm, ok := det.model.(*model.NetModel); ok && i > 0 {
			clf = nm.Clone()
		}
		s, err := streamAt[S](det, clf)
		if err != nil {
			return nil, err
		}
		dets[i] = s
	}
	return eval.EvaluateRobustnessParallel(dets, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}

// evalCascadeRobustnessAt is CascadeDetector.EvaluateRobustness
// compiled at width S.
func evalCascadeRobustnessAt[S tensor.Scalar](cd *CascadeDetector, d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	cs := make([]*cascade.CascadeOf[S], w)
	for i := range cs {
		primary, fallback := compiledAt[S](cd.primary), compiledAt[S](cd.fallback)
		if i > 0 {
			if nm, ok := cd.primary.model.(*model.NetModel); ok {
				primary = nm.Clone()
			}
			if nm, ok := cd.fallback.model.(*model.NetModel); ok {
				fallback = nm.Clone()
			}
		}
		c, err := cascadeStreamAt[S](cd, primary, fallback)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return eval.EvaluateCascadeRobustnessParallel(cs, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}
