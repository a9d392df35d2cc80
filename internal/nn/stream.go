package nn

import (
	"fmt"
	"slices"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// ProgramOf is a branch-first CNN compiled for incremental
// sliding-window inference (DESIGN.md §12) at scalar width S: the
// validated topology, each branch's conv/pool geometry and parameters,
// the stream's rebase mask, and the dense head's steps. It is
// immutable once CompileOf returns, so one program serves any number
// of StreamerOf values — on any number of goroutines — and each of
// them holds only its own rings. That split is the deployment
// target's: the model is a read-only constant in flash, and only the
// per-inference state lives in RAM.
//
// Every parameter is a copy taken by CompileOf, rounded to
// nearest-even per weight at S=float32, so a program is a frozen
// snapshot of the checkpoint at both widths. Each conv branch's
// weights are filter-major ([Kernel·InCh × Filters]) so the conv row
// kernels read one column of filters at a time. Each wide head Dense
// layer (In ≥ 32) is transposed the same way, to one row of Out
// weights per input column ([In × Out]), so the head kernels keep one
// output per SIMD lane and skip the rows of exact-zero inputs; that
// copy is shared by every program compiled from the unchanged layer
// (laneWeights).
type ProgramOf[S tensor.Scalar] struct {
	inCh, window, step int

	rebase []bool // per input column: re-based per window by the caller

	br    []branchProgOf[S]
	head  []headStepOf[S] // precompiled dense head (see compileHead)
	width int             // concat vector length fed to the head
}

// StreamerOf is one stream's state over a ProgramOf: the input ring,
// every branch's rings and running maxima, and the head's buffers. A
// batch scorer re-runs the whole network over the full [Window × C]
// matrix every stride even though consecutive windows share all but
// Step rows. The Streamer instead ingests one row at a time and
// caches each layer's output in a ring:
//
//   - every new input row uncovers exactly one new Conv1D output row
//     per branch (once Kernel rows of history exist), computed by one
//     fused conv row kernel call (convInto) that applies the ReLU and
//     folds the row straight into the pool block's running max;
//   - max pooling runs on the absolute pooling grid: window starts are
//     multiples of Step and Step is a multiple of Pool (checked at
//     compilation), so the pool windows of consecutive decisions are
//     the same non-overlapping [p·r, p·r+p) blocks and the sliding
//     maximum degenerates to a per-block running max — one compare per
//     channel per conv row, no deque. (A monotonic deque is the
//     general structure for overlapping pool windows; profiling showed
//     it costing ~30% of the push path for zero benefit here, since
//     the paper's pooling never overlaps.)
//   - at a decision the pooled rings are gathered into the concat
//     vector and only the compiled dense head runs.
//
// Per decision that is O(Step·Kernel·C) conv work plus the head,
// instead of O(Window·Kernel·C) plus the head — and because every
// floating-point sum is produced in the same per-output order over the
// same values (the filter-major conv row kernels follow the row-major
// kernels' order lane by lane), the result is bit-identical to
// Network.Predict on the assembled window at S=float64, not merely
// close. At S=float32 the same order contract makes the f32 streaming
// and f32 batch paths bit-identical to each other and to the
// row-major kernels run at float32, with the f64 oracle agreement
// proven statistically by the precision harness rather than
// bit-for-bit.
//
// Branches whose input columns the caller re-bases per window (the
// detector subtracts the window-initial yaw from the Euler channels)
// see different input *values* at every stride, so their conv outputs
// cannot be cached across strides; those branches are recomputed in
// fused batch form at each decision. For the paper's 9-channel CNN
// that still streams the accelerometer and gyroscope branches — two
// thirds of the conv work — and the accel-only fallback CNN streams
// entirely.
//
// Cache invariants (relied on by Restart/rebuild and the snapshot
// tests):
//
//   - every cached value is a pure function of the last
//     min(count, Window) input rows and the absolute row count, so a
//     streamer rebuilt by replaying the detector's ring is in the
//     exact state of one that never stopped;
//   - branch input ring slot = absolute row mod Window (with the first
//     Kernel−1 slots mirrored past the end so a conv window is always
//     one contiguous slice), pool ring slot = absolute pool row mod
//     ⌊convT/Pool⌋: the rings hold precisely one window of history and
//     decision-time gathers only read rows the current window covers;
//   - pool rows are emitted on the absolute grid, which lines up with
//     every window start because window starts are multiples of Step
//     and Step is a multiple of Pool (re-checked by Ready).
//
// The push path carries every ring position as a running counter with
// a conditional wrap — no integer division or modulo anywhere per
// sample (a div by a non-constant costs ~20–40 cycles on the target
// core, which profiling showed dominating the original deque).
type StreamerOf[S tensor.Scalar] struct {
	*ProgramOf[S] // shared, read-only

	in    []S // input ring, [window × inCh]; absolute row r at slot r%window
	slot  int // next write slot in `in` (== count mod window)
	count int // absolute rows ingested since the stream epoch
	base  int // absolute row the ring history starts at (0 unless Restart-ed mid-stream)

	branches []branchStreamOf[S]
	hbuf     [][]S // per head step: its output buffer
	cat      []S   // concat vector fed to the head
}

// Streamer is the float64 instantiation — the reference width every
// pre-generic call site uses.
type Streamer = StreamerOf[float64]

// headOp selects what a compiled head step computes.
type headOp uint8

const (
	headDense   headOp = iota // y = W·x + b, optionally with the following ReLU folded in
	headReLU                  // a lone ReLU (not directly after a Dense)
	headSigmoid               // logistic transfer
	headTanh                  // hyperbolic tangent
)

// headStepOf is one precompiled step of the dense head. Dense layers
// (optionally with their following ReLU folded in) run straight
// through the kernels into a stream-owned buffer: wide ones (In ≥ 32)
// through the simd head kernels, one output per lane, narrow ones
// through the row-major matVecBias and, with a folded ReLU, reluInto
// (see lanes). Lone activations run through
// the generic element-wise helpers, which at float64 evaluate exactly
// the layer objects' expressions. Flatten is the identity on the 1-D
// head and compiles to no step at all. Every step therefore produces
// bit-identical values to the layer stack at S=float64 while skipping
// per-layer tensor bookkeeping on the decision path — and gives
// float32 a complete head with no float64 layer objects in the loop.
type headStepOf[S tensor.Scalar] struct {
	op      headOp
	relu    bool // headDense: apply the following ReLU to the outputs
	out, in int  // headDense dimensions
	// headDense parameters, copied at compilation. Wide layers (In ≥
	// 32) run the head lane kernels and hold w transposed
	// (transposeCopy, shared by the programs of an unchanged layer);
	// narrow ones hold it row-major, [Out × In], for matVecBias, whose
	// narrow order the lanes do not follow.
	lanes bool
	w, b  []S
	width int // step output length
}

// branchProgOf is one Branch column range compiled from a canonical
// Conv1D→ReLU→MaxPool1D stack: streamed through ring caches on
// non-rebased columns, or recomputed in fused batch form per decision.
type branchProgOf[S tensor.Scalar] struct {
	lo, hi int
	flat   int  // flattened output length
	batch  bool // recomputed per decision instead of streamed

	filters  int
	kernel   int
	pool     int
	convT    int // conv rows per window = window−Kernel+1
	fullPool int // complete pool rows per window = convT/pool
	tailLo   int // window-relative conv row where the partial pool tail starts (== convT when none)

	// Conv parameters, copied at compilation: wgt filter-major,
	// [Kernel·InCh × Filters], for the simd conv row kernels.
	wgt, bias []S
}

// branchStreamOf is one stream's state for a compiled branch.
type branchStreamOf[S tensor.Scalar] struct {
	*branchProgOf[S] // shared, read-only

	in []S // batch form: assembled [window × hi−lo] input

	// Double-write input ring: [(window+kernel−1) × w]. Absolute row r
	// lives at slot r mod window; rows landing in slots < kernel−1 are
	// mirrored to slot+window, so the conv window of any row is the
	// contiguous slice bring[awin·w : awin·w+kernel·w] — no gather.
	bring []S
	awin  int // bring slot of the next conv row's window start (wraps at window)

	// Conv output storage. When the window's conv length is an exact
	// pool multiple only the running max needs each row, and the conv
	// row kernel folds it into rmax directly; with a partial pool tail
	// the gather must re-read the newest conv rows, so a full
	// [convT × Filters] ring is kept.
	convRing []S
	aslot    int // convRing slot of the next conv row (wraps at convT)

	// Running max over the current pool block. phase counts conv rows
	// into the block (== a mod pool); at phase pool−1 the block is
	// complete and rmax is emitted to poolRing — unless the block
	// started before the stream epoch (partial after Restart).
	rmax     []S
	phase    int
	poolRing []S // [fullPool × Filters]; absolute pool row r at slot r%fullPool
	poolSlot int // poolRing slot of the next emitted pool row (wraps at fullPool)
}

// StreamConfig describes the stream a Streamer will consume.
type StreamConfig struct {
	// InCh is the row width; Window and Step are the detector's
	// sliding-window geometry in samples.
	InCh, Window, Step int
	// RebaseCols lists input columns the caller re-bases per window
	// (the value at the window's first row is subtracted from the
	// whole column before scoring). Branches reading any of them are
	// recomputed in batch form at each decision.
	RebaseCols []int
}

// NewStreamer builds a float64 incremental scorer for net — the
// reference instantiation of NewStreamerOf.
func NewStreamer(net *Network, cfg StreamConfig) (*Streamer, error) {
	return NewStreamerOf[float64](net, cfg)
}

// NewStreamerOf compiles net for cfg and returns one stream over the
// program: CompileOf followed by NewStreamer. Callers that build many
// streams from one model compile once and call NewStreamer per stream.
func NewStreamerOf[S tensor.Scalar](net *Network, cfg StreamConfig) (*StreamerOf[S], error) {
	p, err := CompileOf[S](net, cfg)
	if err != nil {
		return nil, err
	}
	return p.NewStreamer(), nil
}

// CompileOf compiles net for incremental scoring at width S. net must
// be a Branch whose every stack is exactly Conv1D→ReLU→MaxPool1D,
// followed by a dense head (Dense/ReLU/Sigmoid/Tanh/Flatten layers
// only) — the shape of every CNN this repo builds. Other topologies
// (MLP, recurrent, other branch stacks, conv windows Kernel·InCh ≥ 32
// too wide for the conv row kernels) return an error; callers fall
// back to batch scoring, which is bit-identical at float64.
//
// Every parameter is copied here at both widths: the conv weights
// and the wide head Dense weights transposed for the conv row and
// head kernels (one head copy per layer and width while the layer is
// unchanged). The program is a
// frozen snapshot of the checkpoint — training net afterwards changes
// no program compiled from it — which is how the deployment target
// consumes a model anyway.
func CompileOf[S tensor.Scalar](net *Network, cfg StreamConfig) (*ProgramOf[S], error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("nn: streamer needs a non-empty network")
	}
	if cfg.InCh < 1 || cfg.Window < 1 || cfg.Step < 1 {
		return nil, fmt.Errorf("nn: streamer config %+v invalid", cfg)
	}
	br, ok := net.Layers[0].(*Branch)
	if !ok {
		return nil, fmt.Errorf("nn: streamer needs a branch-first topology, got %s", net.Layers[0].Name())
	}
	rebase := make([]bool, cfg.InCh)
	for _, c := range cfg.RebaseCols {
		if c < 0 || c >= cfg.InCh {
			return nil, fmt.Errorf("nn: rebase column %d outside %d channels", c, cfg.InCh)
		}
		rebase[c] = true
	}
	p := &ProgramOf[S]{
		inCh:   cfg.InCh,
		window: cfg.Window,
		step:   cfg.Step,
		rebase: rebase,
	}
	for i, c := range br.Cols {
		if c[1] > cfg.InCh {
			return nil, fmt.Errorf("nn: branch %d columns %v exceed %d channels", i, c, cfg.InCh)
		}
		b, err := p.compileBranch(c[0], c[1], br.Stacks[i])
		if err != nil {
			return nil, fmt.Errorf("nn: streamer branch %d: %w", i, err)
		}
		p.br = append(p.br, b)
		p.width += b.flat
	}
	layers := net.Layers[1:]
	hshape := []int{p.width}
	for _, l := range layers {
		switch l.(type) {
		case *Dense, *ReLU, *Sigmoid, *Tanh, *Flatten:
		default:
			return nil, fmt.Errorf("nn: streamer head cannot contain %s", l.Name())
		}
		var err error
		hshape, err = l.OutShape(hshape)
		if err != nil {
			return nil, fmt.Errorf("nn: streamer head: %w", err)
		}
	}
	if len(hshape) != 1 || hshape[0] != 1 {
		return nil, fmt.Errorf("nn: streamer head output shape %v, want [1]", hshape)
	}
	p.compileHead(layers)
	return p, nil
}

// compileHead precompiles the validated head layers into headSteps:
// Dense layers run through the head or micro-kernels (a ReLU directly
// after a Dense folds into its step), lone activations through the
// generic element-wise helpers, and Flatten — the identity on the 1-D
// head — compiles away entirely.
func (p *ProgramOf[S]) compileHead(layers []Layer) {
	width := p.width
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Dense:
			st := headStepOf[S]{
				op: headDense, out: l.Out, in: l.In, width: l.Out,
				lanes: l.In >= 32,
				b:     lowerCopy[S](l.Bias.W.Data()),
			}
			if st.lanes {
				st.w = laneWeights[S](l)
			} else {
				st.w = lowerCopy[S](l.Weight.W.Data())
			}
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*ReLU); ok {
					st.relu = true
					i++
				}
			}
			p.head = append(p.head, st)
			width = l.Out
		case *ReLU:
			p.head = append(p.head, headStepOf[S]{op: headReLU, width: width})
		case *Sigmoid:
			p.head = append(p.head, headStepOf[S]{op: headSigmoid, width: width})
		case *Tanh:
			p.head = append(p.head, headStepOf[S]{op: headTanh, width: width})
		case *Flatten:
			// identity on a 1-D head: no step
		}
	}
}

// laneWeights returns d's weights transposed for the head lane kernels
// at width S (transposeCopy). Every program compiled from d while its
// weights are unchanged shares one copy, so a caller that compiles one
// program per stream pays for its rings, not for another copy of the
// head. A cached copy is reused
// only while it still equals a fresh layout of the weights, so a layer
// trained after a compilation gets a new copy and every earlier
// program keeps its frozen snapshot.
func laneWeights[S tensor.Scalar](d *Dense) []S {
	i := 0
	if !tensor.Is64[S]() {
		i = 1
	}
	d.lanesMu.Lock()
	defer d.lanesMu.Unlock()
	if w, ok := d.lanes[i].([]S); ok && transposeMatches(w, d.Weight.W.Data(), d.Out, d.In) {
		return w
	}
	w := transposeCopy[S](d.Weight.W.Data(), d.Out, d.In)
	d.lanes[i] = w
	return w
}

// compileBranch compiles one branch's stack over columns [lo, hi). Its
// conv window Kernel·InCh must be below 32, the conv row kernels'
// limit; every CNN this repo builds reads 3 channels over 5 rows. The
// branch streams when none of its columns are re-based per window and
// the stride keeps window starts on the pooling grid (Step divisible
// by Pool); otherwise it is recomputed per decision in fused row-wise
// form — same conv row kernel, same values, no intermediate layer
// tensors.
func (p *ProgramOf[S]) compileBranch(lo, hi int, stack []Layer) (branchProgOf[S], error) {
	w := hi - lo
	var conv *Conv1D
	var mp *MaxPool1D
	if len(stack) == 3 {
		conv, _ = stack[0].(*Conv1D)
		_, relu := stack[1].(*ReLU)
		mp, _ = stack[2].(*MaxPool1D)
		if !relu {
			conv = nil
		}
	}
	if conv == nil || mp == nil {
		return branchProgOf[S]{}, fmt.Errorf("needs a Conv1D→ReLU→MaxPool1D stack")
	}
	convT := p.window - conv.Kernel + 1
	if conv.InCh != w || convT < 1 {
		return branchProgOf[S]{}, fmt.Errorf("conv reads %d channels over %d rows, branch has %d over a %d-row window",
			conv.InCh, conv.Kernel, w, p.window)
	}
	shape := []int{p.window, w}
	for _, l := range stack {
		var err error
		if shape, err = l.OutShape(shape); err != nil {
			return branchProgOf[S]{}, err
		}
	}
	kc := conv.Kernel * w
	if kc >= 32 {
		return branchProgOf[S]{}, fmt.Errorf("conv window of %d values (kernel %d × %d channels) exceeds the conv row kernels' 31", kc, conv.Kernel, w)
	}
	b := branchProgOf[S]{
		lo: lo, hi: hi,
		flat:     shape[0] * shape[1],
		filters:  conv.Filters,
		kernel:   conv.Kernel,
		pool:     mp.Pool,
		convT:    convT,
		fullPool: convT / mp.Pool,
		wgt:      transposeCopy[S](conv.Weight.W.Data(), conv.Filters, kc),
		bias:     lowerCopy[S](conv.Bias.W.Data()),
	}
	b.tailLo = b.fullPool * mp.Pool
	rebased := false
	for c := lo; c < hi; c++ {
		rebased = rebased || p.rebase[c]
	}
	b.batch = rebased || p.step%mp.Pool != 0
	return b, nil
}

// NewStreamer returns a cold stream over p. Only the stream's rings
// and buffers are allocated; every parameter is read through p.
func (p *ProgramOf[S]) NewStreamer() *StreamerOf[S] {
	s := &StreamerOf[S]{
		ProgramOf: p,
		in:        make([]S, p.window*p.inCh),
		branches:  make([]branchStreamOf[S], len(p.br)),
		hbuf:      make([][]S, len(p.head)),
		cat:       make([]S, p.width),
	}
	for i := range p.br {
		g := &p.br[i]
		w := g.hi - g.lo
		b := &s.branches[i]
		b.branchProgOf = g
		// Every batch form (including BatchScore on streaming
		// branches) assembles the window here.
		b.in = make([]S, p.window*w)
		if g.batch {
			continue
		}
		b.bring = make([]S, (p.window+g.kernel-1)*w)
		if g.tailLo < g.convT {
			b.convRing = make([]S, g.convT*g.filters)
		}
		b.rmax = make([]S, g.filters)
		b.poolRing = make([]S, g.fullPool*g.filters)
	}
	for i, st := range p.head {
		s.hbuf[i] = make([]S, st.width)
	}
	return s
}

// Fits reports whether p was compiled for cfg's stream geometry: the
// same row width, window, step and re-based columns.
func (p *ProgramOf[S]) Fits(cfg StreamConfig) bool {
	if cfg.InCh != p.inCh || cfg.Window != p.window || cfg.Step != p.step {
		return false
	}
	for _, c := range cfg.RebaseCols {
		if c < 0 || c >= p.inCh || !p.rebase[c] {
			return false
		}
	}
	for c, r := range p.rebase {
		if r && !slices.Contains(cfg.RebaseCols, c) {
			return false
		}
	}
	return true
}

// Streaming reports whether any branch actually runs incrementally
// (a program whose branches all run in batch form is valid but its
// streams save nothing).
func (p *ProgramOf[S]) Streaming() bool {
	for i := range p.br {
		if !p.br[i].batch {
			return true
		}
	}
	return false
}

// Restart clears every cache and declares the next pushed row to be
// absolute row base. Rebuilding a streamer to the exact state of one
// that never stopped is Restart(count−n) followed by pushing the last
// n = min(count, Window) rows oldest-first: pool emission runs on the
// absolute grid, so the replay lands on the same ring slots and
// running-max phases as the original. The first pool block after a
// mid-stream Restart may begin before base; its rows are gone, so its
// emission is suppressed — no complete window ever covers it (window
// starts are ≥ base and grid-aligned).
func (s *StreamerOf[S]) Restart(base int) {
	s.count = base
	s.base = base
	s.slot = base % s.window
	for i := range s.branches {
		b := &s.branches[i]
		if b.batch {
			continue
		}
		b.awin = base % s.window
		b.aslot = base % b.convT
		b.phase = base % b.pool
		for i := range b.rmax {
			b.rmax[i] = 0
		}
		if b.fullPool > 0 {
			// First pool row emitted after base is ⌈base/pool⌉ — the
			// first block wholly at or after base.
			b.poolSlot = ((base + b.pool - 1) / b.pool) % b.fullPool
		}
	}
}

// Reset returns the streamer to its cold state.
func (s *StreamerOf[S]) Reset() { s.Restart(0) }

// Push ingests one input row (len ≥ inCh; only the first inCh values
// are read) and advances every streaming branch.
//
//fallvet:hotpath
func (s *StreamerOf[S]) Push(row []S) {
	slot := s.slot
	// Row widths are single-digit; explicit loops beat memmove calls.
	d := s.in[slot*s.inCh : (slot+1)*s.inCh]
	for i := range d {
		d[i] = row[i]
	}
	s.slot++
	if s.slot == s.window {
		s.slot = 0
	}
	s.count++
	for i := range s.branches {
		b := &s.branches[i]
		if b.batch {
			continue
		}
		w := b.hi - b.lo
		src := row[b.lo:b.hi]
		p := b.bring[slot*w : slot*w+w]
		for i := range p {
			p[i] = src[i]
		}
		if slot < b.kernel-1 {
			m := b.bring[(slot+s.window)*w : (slot+s.window)*w+w]
			for i := range m {
				m[i] = src[i]
			}
		}
		if a := s.count - b.kernel; a >= s.base {
			b.pushConv(s, a)
		}
	}
}

// pushConv computes absolute conv row a, newly uncovered by the latest
// push, and folds it into the running pool max. Without a conv ring
// the conv row kernel writes into rmax directly (storing at a block's
// first row, folding after); with one the row is stored in the ring
// and folded from there.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) pushConv(s *StreamerOf[S], a int) {
	w := b.hi - b.lo
	win := b.bring[b.awin*w : b.awin*w+b.kernel*w]
	b.awin++
	if b.awin == s.window {
		b.awin = 0
	}
	if b.convRing == nil {
		b.convInto(b.rmax, win, b.phase != 0)
	} else {
		F := b.filters
		orow := b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
		b.convInto(orow, win, false)
		if b.fullPool == 0 {
			return
		}
		if b.phase == 0 {
			copy(b.rmax, orow)
		} else {
			maxInto(b.rmax, orow)
		}
	}
	b.phase++
	if b.phase == b.pool {
		b.phase = 0
		// Emit the completed block unless it started before the
		// stream epoch (partial after a mid-stream Restart).
		if a+1-b.pool >= s.base {
			F := b.filters
			p := b.poolSlot * F
			copy(b.poolRing[p:p+F], b.rmax)
			b.poolSlot++
			if b.poolSlot == b.fullPool {
				b.poolSlot = 0
			}
		}
	}
}

// convInto computes the ReLU'd conv row over input window x into dst:
// stored, or with fold merged into dst as the pool's running max (dst[f]
// = v > dst[f] ? v : dst[f], MaxPool1D's strict `>`). It runs the simd
// conv row kernel at S's width: filter-major weights, every filter in
// its own SIMD lane, each lane following the per-output order of
// matVecBias's narrow path exactly — so the row is bit-identical to the
// row-major kernel's followed by the ReLU clamp (DESIGN.md §12.2).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) convInto(dst, x []S, fold bool) {
	F := b.filters
	kc := b.kernel * (b.hi - b.lo)
	if tensor.Is64[S]() {
		//fallvet:ignore hottrans simd.ConvRowF64 is a NOSPLIT assembly leaf with no body to analyze; it allocates nothing (without AVX it tail-calls the alloc-free generic reference)
		simd.ConvRowF64(f64s(dst), f64s(x), f64s(b.wgt), f64s(b.bias), F, kc, fold)
		return
	}
	//fallvet:ignore hottrans simd.ConvRowF32 is a NOSPLIT assembly leaf with no body to analyze; it allocates nothing (without AVX it tail-calls the alloc-free generic reference)
	simd.ConvRowF32(f32s(dst), f32s(x), f32s(b.wgt), f32s(b.bias), F, kc, fold)
}

// maxInto folds row into the running max dst with MaxPool1D's strict
// `>`: dst[f] = v > dst[f] ? v : dst[f].
//
//fallvet:hotpath
func maxInto[S tensor.Scalar](dst, row []S) {
	for f, v := range row {
		if v > dst[f] {
			dst[f] = v
		}
	}
}

// Ready reports whether Score may run: a full window of history
// exists and its start row sits on every streaming branch's pooling
// grid. Detector strides keep the start aligned (Step is a multiple
// of Pool); off-stride callers simply see false and score in batch.
func (s *StreamerOf[S]) Ready() bool {
	if s.count < s.window {
		return false
	}
	start := s.count - s.window
	for i := range s.br {
		if b := &s.br[i]; !b.batch && start%b.pool != 0 {
			return false
		}
	}
	return true
}

// Score evaluates the network over the current window, reusing every
// cached conv/pool row the slide kept and recomputing only re-based
// branches and the dense head. Callers must check Ready first.
//
//fallvet:hotpath
func (s *StreamerOf[S]) Score() float64 {
	start := s.count - s.window
	off := 0
	for i := range s.branches {
		b := &s.branches[i]
		if b.batch {
			s.runBatchBranch(b, s.cat[off:off+b.flat], start)
		} else {
			b.gather(s.cat[off:off+b.flat], start)
		}
		off += b.flat
	}
	return float64(s.runHead(s.cat))
}

// BatchScore evaluates the network over the current window entirely in
// batch form from the streamer's own input ring — every branch through
// the fused row-wise kernels, then the compiled head. Unlike Score it does not require
// the window start to sit on the pooling grid, so it is the compiled
// path's full fallback for off-stride scoring; at S=float64 it is
// bit-identical to Network.Predict on the assembled window by the
// kernel order contract. A full window of history must exist
// (count ≥ Window).
//
//fallvet:hotpath
func (s *StreamerOf[S]) BatchScore() float64 {
	start := s.count - s.window
	off := 0
	for i := range s.branches {
		b := &s.branches[i]
		s.runBatchBranch(b, s.cat[off:off+b.flat], start)
		off += b.flat
	}
	return float64(s.runHead(s.cat))
}

// runHead executes the precompiled head steps over the concat vector
// and returns the (single) network output.
//
//fallvet:hotpath
func (s *StreamerOf[S]) runHead(cur []S) S {
	for i := range s.head {
		st := &s.head[i]
		buf := s.hbuf[i]
		switch st.op {
		case headDense:
			st.denseInto(buf, cur)
		case headReLU:
			reluInto(buf, cur)
		case headSigmoid:
			sigmoidInto(buf, cur)
		case headTanh:
			tanhInto(buf, cur)
		}
		cur = buf
	}
	return cur[0]
}

// denseInto computes a Dense step, with its folded ReLU, over x into
// dst. Lane steps run the head kernel at S's width: transposed
// weights, every output in its own SIMD lane following the per-output
// order of the row-major kernel exactly, with the exact-zero inputs
// skipped wherever that order allows — so the step is bit-identical to
// the row-major kernel at either width, and to Dense.Forward at
// S=float64 (DESIGN.md §12.1). Narrow steps run the row-major kernel
// itself, then the ReLU clamp, which gives the same bits as clamping
// each sum as it is stored.
//
//fallvet:hotpath
func (st *headStepOf[S]) denseInto(dst, x []S) {
	switch {
	case !st.lanes:
		matVecBias(dst, x, st.w, st.b, st.out, st.in)
		if st.relu {
			reluInto(dst, dst)
		}
	case tensor.Is64[S]():
		//fallvet:ignore hottrans simd.HeadF64 is a NOSPLIT assembly leaf with no body to analyze; it allocates nothing (without AVX it tail-calls the alloc-free generic reference, with AVX its NOSPLIT body headF64AVX, whose scratch is its own frame)
		simd.HeadF64(f64s(dst), f64s(x), f64s(st.w), f64s(st.b), st.out, st.in, st.relu)
	default:
		//fallvet:ignore hottrans simd.HeadF32 is a NOSPLIT assembly leaf with no body to analyze; it allocates nothing (without AVX it tail-calls the alloc-free generic reference, with AVX its NOSPLIT body headF32AVX, whose scratch is its own frame)
		simd.HeadF32(f32s(dst), f32s(x), f32s(st.w), f32s(st.b), st.out, st.in, st.relu)
	}
}

// gather copies the window's pooled rows (plus the partial tail, if
// the conv length is not a pool multiple) into dst. The divisions
// here run once per decision, not per sample.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) gather(dst []S, start int) {
	F := b.filters
	slot := (start / b.pool) % b.fullPool
	n := 0
	for q := 0; q < b.fullPool; q++ {
		p := slot * F
		copy(dst[n:n+F], b.poolRing[p:p+F])
		n += F
		slot++
		if slot == b.fullPool {
			slot = 0
		}
	}
	if b.tailLo < b.convT {
		cs := (start + b.tailLo) % b.convT
		copy(dst[n:n+F], b.convRing[cs*F:cs*F+F])
		for q := b.tailLo + 1; q < b.convT; q++ {
			cs++
			if cs == b.convT {
				cs = 0
			}
			maxInto(dst[n:n+F], b.convRing[cs*F:cs*F+F])
		}
	}
}

// runBatchBranch assembles the branch's input columns from the ring,
// applies the per-window re-basing the detector applies (subtracting
// each re-based column's first value), and runs the fused row-wise
// kernels — the same values through the same code as the batch path.
//
//fallvet:hotpath
func (s *StreamerOf[S]) runBatchBranch(b *branchStreamOf[S], dst []S, start int) {
	w := b.hi - b.lo
	ind := b.in
	slot := start % s.window
	for i := 0; i < s.window; i++ {
		src := s.in[slot*s.inCh+b.lo : slot*s.inCh+b.hi]
		row := ind[i*w : i*w+w]
		for j := range row {
			row[j] = src[j]
		}
		slot++
		if slot == s.window {
			slot = 0
		}
	}
	for c := 0; c < w; c++ {
		if !s.rebase[b.lo+c] {
			continue
		}
		v0 := ind[c]
		for i := 0; i < s.window; i++ {
			ind[i*w+c] -= v0
		}
	}
	b.fusedConvPool(dst, ind)
}

// fusedConvPool evaluates a canonical Conv→ReLU→MaxPool stack over the
// assembled window row-wise, writing pooled rows (and the trailing
// partial block) straight into dst: each conv row is computed by
// convInto directly into its pooled segment, stored at a block's first
// row and folded into the running max after. It produces bit-identical
// values to the layer objects — each conv row in the same per-output
// order over the same contiguous input slice, ReLU the same v ≤ 0
// clamp, pooling the same strict-`>` running max — while skipping
// every intermediate tensor.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) fusedConvPool(dst, ind []S) {
	w := b.hi - b.lo
	kc := b.kernel * w
	F := b.filters
	phase, n := 0, 0
	for t := 0; t < b.convT; t++ {
		b.convInto(dst[n:n+F], ind[t*w:t*w+kc], phase != 0)
		phase++
		if phase == b.pool {
			phase = 0
			n += F
		}
	}
}
