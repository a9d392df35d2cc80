package nn

import (
	"fmt"
	"slices"

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
// At S=float64 the program's parameter slices alias the network's own
// tensors (so in-place updates stay visible, exactly as when the
// kernels read the layer tensors directly); at S=float32 they are a
// rounded copy of the checkpoint (round-to-nearest-even per weight),
// taken once by CompileOf.
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
//     per branch (once Kernel rows of history exist), computed with
//     the same matVecBias micro-kernel the batch path uses and stored
//     post-ReLU;
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
// floating-point sum is produced by the same kernel in the same
// order over the same values, the result is bit-identical to
// Network.Predict on the assembled window at S=float64, not merely
// close. At S=float32 the same order contract makes the f32 streaming
// and f32 batch paths bit-identical to each other, with the f64
// oracle agreement proven statistically by the precision harness
// rather than bit-for-bit.
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
// through the micro-kernels into a stream-owned buffer; lone
// activations run through the generic element-wise helpers, which at
// float64 evaluate exactly the layer objects' expressions. Flatten is
// the identity on the 1-D head and compiles to no step at all. Every
// step therefore produces bit-identical values to the layer stack at
// S=float64 while skipping per-layer tensor bookkeeping on the
// decision path — and gives float32 a complete head with no float64
// layer objects in the loop.
type headStepOf[S tensor.Scalar] struct {
	op      headOp
	relu    bool // headDense: fold the following ReLU into the kernel's stores
	out, in int  // headDense dimensions
	w, b    []S  // headDense parameters
	width   int  // step output length
}

// branchProgOf is one Branch column range compiled from a canonical
// Conv1D→ReLU→MaxPool1D stack: streamed through ring caches on
// non-rebased columns, or recomputed in fused batch form per decision.
type branchProgOf[S tensor.Scalar] struct {
	lo, hi int
	flat   int  // flattened output length
	batch  bool // recomputed per decision instead of streamed

	filters   int
	kernel    int
	wgt, bias []S // conv parameters
	pool      int
	convT     int // conv rows per window = window−Kernel+1
	fullPool  int // complete pool rows per window = convT/pool
	tailLo    int // window-relative conv row where the partial pool tail starts (== convT when none)

	// Conv rows are computed in pairs through matVecBias2, which loads
	// each weight once for two windows: a freshly uncovered row is
	// deferred (pend/pendA) until its successor arrives, and Score
	// flushes a leftover single before gathering. Values are identical
	// either way — the pairing only changes when the arithmetic runs,
	// never its order. Pairing is disabled (pair == false) when
	// convT == 1 — the deferred row's input window would not survive
	// the next push — or when the conv input width reaches matVecBias's
	// wide path, whose summation order matVecBias2 does not reproduce.
	pair bool
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
	// pool multiple only the running max needs each row and crow/crow2
	// are one-row scratches; with a partial pool tail the gather must
	// re-read the newest conv rows, so a full [convT × Filters] ring is
	// kept.
	crow     []S
	crow2    []S
	convRing []S
	aslot    int // convRing slot of the next conv row (wraps at convT)

	pend  bool // a conv row is deferred for pairing (see branchProgOf.pair)
	pendA int  // its absolute row

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
// (MLP, recurrent, other branch stacks) return an error; callers fall
// back to batch scoring, which is bit-identical at float64.
//
// At S=float64 the program shares net's parameters: it reads them
// live, so net may not be trained while streams of it score. At
// S=float32 the parameters are lowered copies taken here — a frozen
// snapshot of the checkpoint, which is how the deployment target
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
// Dense layers run through the micro-kernels (a ReLU directly after a
// Dense folds into its stores), lone activations through the generic
// element-wise helpers, and Flatten — the identity on the 1-D head —
// compiles away entirely.
func (p *ProgramOf[S]) compileHead(layers []Layer) {
	width := p.width
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Dense:
			st := headStepOf[S]{
				op: headDense, out: l.Out, in: l.In, width: l.Out,
				w: lowerOrAlias[S](l.Weight.W.Data()),
				b: lowerOrAlias[S](l.Bias.W.Data()),
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

// compileBranch compiles one branch's stack over columns [lo, hi). The
// branch streams when none of its columns are re-based per window and
// the stride keeps window starts on the pooling grid (Step divisible
// by Pool); otherwise it is recomputed per decision in fused row-wise
// form — same kernel, same values, no intermediate layer tensors.
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
	b := branchProgOf[S]{
		lo: lo, hi: hi,
		flat:     shape[0] * shape[1],
		filters:  conv.Filters,
		kernel:   conv.Kernel,
		wgt:      lowerOrAlias[S](conv.Weight.W.Data()),
		bias:     lowerOrAlias[S](conv.Bias.W.Data()),
		pool:     mp.Pool,
		convT:    convT,
		fullPool: convT / mp.Pool,
	}
	b.tailLo = b.fullPool * mp.Pool
	rebased := false
	for c := lo; c < hi; c++ {
		rebased = rebased || p.rebase[c]
	}
	b.batch = rebased || p.step%mp.Pool != 0
	b.pair = !b.batch && convT >= 2 && conv.Kernel*w < 32
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
		b.crow = make([]S, g.filters)
		b.crow2 = make([]S, g.filters)
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
		b.pend = false
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

// pushConv handles absolute conv row a, newly uncovered by the latest
// push. With a predecessor pending the two rows are computed together
// through matVecBias2ReLU; otherwise the row is deferred for the next
// push (or for Score's flush). Branches with pairing disabled compute
// immediately — see the pair field comment.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) pushConv(s *StreamerOf[S], a int) {
	if !b.pend {
		if !b.pair {
			b.convRow(s, a)
			return
		}
		b.pend = true
		b.pendA = a
		return
	}
	b.pend = false
	w := b.hi - b.lo
	kc := b.kernel * w
	xa := b.bring[b.awin*w : b.awin*w+kc]
	aw2 := b.awin + 1
	if aw2 == s.window {
		aw2 = 0
	}
	xb := b.bring[aw2*w : aw2*w+kc]
	b.awin = aw2 + 1
	if b.awin == s.window {
		b.awin = 0
	}
	F := b.filters
	da, db := b.crow, b.crow2
	if b.convRing != nil {
		da = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
		db = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
	}
	matVecBias2ReLU(da, db, xa, xb, b.wgt, b.bias, F, kc)
	b.absorb(s, da, a-1)
	b.absorb(s, db, a)
}

// convRow computes one conv row on its own (pair flush, or a branch
// with pairing disabled).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) convRow(s *StreamerOf[S], a int) {
	w := b.hi - b.lo
	kc := b.kernel * w
	win := b.bring[b.awin*w : b.awin*w+kc]
	b.awin++
	if b.awin == s.window {
		b.awin = 0
	}
	F := b.filters
	orow := b.crow
	if b.convRing != nil {
		orow = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
	}
	matVecBiasReLU(orow, win, b.wgt, b.bias, F, kc)
	b.absorb(s, orow, a)
}

// flush computes a deferred conv row so every row the current window
// covers is materialised before a gather.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) flush(s *StreamerOf[S]) {
	if b.pend {
		b.pend = false
		b.convRow(s, b.pendA)
	}
}

// absorb folds a conv row (already clamped by the ReLU-fused kernel)
// into the running pool max and emits a pooled row when it completes a
// pool block (suppressed for the partial block straddling a mid-stream
// Restart).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) absorb(s *StreamerOf[S], orow []S, a int) {
	if b.fullPool == 0 {
		return
	}
	rmax := b.rmax
	if b.phase == 0 {
		copy(rmax, orow)
	} else {
		for f, v := range orow {
			if v > rmax[f] {
				rmax[f] = v
			}
		}
	}
	b.phase++
	if b.phase == b.pool {
		b.phase = 0
		if a+1-b.pool >= s.base {
			F := b.filters
			p := b.poolSlot * F
			copy(b.poolRing[p:p+F], rmax)
			b.poolSlot++
			if b.poolSlot == b.fullPool {
				b.poolSlot = 0
			}
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
			b.flush(s)
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
			if st.relu {
				matVecBiasReLU(buf, cur, st.w, st.b, st.out, st.in)
			} else {
				matVecBias(buf, cur, st.w, st.b, st.out, st.in)
			}
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
			row := b.convRing[cs*F : cs*F+F]
			for f, v := range row {
				if v > dst[n+f] {
					dst[n+f] = v
				}
			}
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
// partial block) straight into dst. It produces bit-identical values
// to the layer objects — each conv row goes through the same
// matVecBias call on the same contiguous input slice, ReLU is the same
// v ≤ 0 clamp, pooling the same strict-`>` running max — while
// skipping every intermediate tensor.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) fusedConvPool(dst, ind []S) {
	w := b.hi - b.lo
	kc := b.kernel * w
	F := b.filters
	phase, n := 0, 0
	t := 0
	if kc < 32 {
		for ; t+2 <= b.convT; t += 2 {
			matVecBias2ReLU(b.crow, b.crow2, ind[t*w:t*w+kc], ind[(t+1)*w:(t+1)*w+kc], b.wgt, b.bias, F, kc)
			phase, n = b.fusedAbsorb(dst, b.crow, phase, n)
			phase, n = b.fusedAbsorb(dst, b.crow2, phase, n)
		}
	}
	for ; t < b.convT; t++ {
		matVecBiasReLU(b.crow, ind[t*w:t*w+kc], b.wgt, b.bias, F, kc)
		phase, n = b.fusedAbsorb(dst, b.crow, phase, n)
	}
}

// fusedAbsorb folds one fused conv row (pre-clamped by the ReLU-fused
// kernel) into the pooled output at block offset n, returning the
// advanced (phase, n).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) fusedAbsorb(dst, crow []S, phase, n int) (int, int) {
	F := b.filters
	seg := dst[n : n+F]
	if phase == 0 {
		copy(seg, crow)
	} else {
		for f, v := range crow {
			if v > seg[f] {
				seg[f] = v
			}
		}
	}
	phase++
	if phase == b.pool {
		phase = 0
		n += F
	}
	return phase, n
}
