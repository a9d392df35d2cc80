package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// streamTestNet builds a branch CNN in the paper's shape: per-branch
// Conv1D(w→filters, kernel)→ReLU→MaxPool1D(pool) stacks over the given
// column ranges, then Dense(→16)→ReLU→Dense(→1)→Sigmoid. Conv biases
// are drawn nonzero so every lane's bias add is exercised.
func streamTestNet(t *testing.T, window int, cols [][2]int, filters, kernel, pool int, rng *rand.Rand) *Network {
	return streamHeadNet(t, window, cols, filters, kernel, pool, 16, 0, rng)
}

// streamHeadNet is streamTestNet with hidden units in the first dense
// layer and every conv bias shifted by biasShift: a negative shift
// makes the ReLU'd head input mostly exact zeros, a positive one
// makes it mostly nonzero.
func streamHeadNet(t *testing.T, window int, cols [][2]int, filters, kernel, pool, hidden int, biasShift float64, rng *rand.Rand) *Network {
	t.Helper()
	stacks := make([][]Layer, len(cols))
	total := 0
	for i, c := range cols {
		conv := NewConv1D(c[1]-c[0], filters, kernel, rng)
		for f := range conv.Bias.W.Data() {
			conv.Bias.W.Data()[f] = rng.NormFloat64()*0.1 + biasShift
		}
		stacks[i] = []Layer{conv, NewReLU(), NewMaxPool1D(pool)}
		convT := window - kernel + 1
		total += (convT + pool - 1) / pool * filters
	}
	return NewNetwork(
		NewBranch(cols, stacks),
		NewDense(total, hidden, rng),
		NewReLU(),
		NewDense(hidden, 1, rng),
		NewSigmoid(),
	)
}

// rowMajorHead evaluates net's head over the concat vector cat at
// width S through the generic row-major kernels and the layer-wise
// activations, with weights lowered row-major: the compiled head's
// oracle at S=float32, where no Network.Predict exists. It shares no
// code with the simd head kernels the compiled head runs.
func rowMajorHead[S tensor.Scalar](net *Network, cat []S) float64 {
	cur := cat
	for _, l := range net.Layers[1:] {
		out := make([]S, len(cur))
		switch l := l.(type) {
		case *Dense:
			out = make([]S, l.Out)
			matVecBias(out, cur, lowerCopy[S](l.Weight.W.Data()), lowerCopy[S](l.Bias.W.Data()), l.Out, l.In)
		case *ReLU:
			reluInto(out, cur)
		case *Sigmoid:
			sigmoidInto(out, cur)
		case *Tanh:
			tanhInto(out, cur)
		default:
			copy(out, cur)
		}
		cur = out
	}
	return float64(cur[0])
}

// zeroRow zeroes each value of row with probability p.
func zeroRow(rng *rand.Rand, row []float64, p float64) {
	for c := range row {
		if rng.Float64() < p {
			row[c] = 0
		}
	}
}

// assembleRebased builds the batch input the detector would score: the
// last `window` rows of rows, with each rebase column shifted by its
// window-initial value.
func assembleRebased(rows [][]float64, window, inCh int, rebaseCols []int) *tensor.Tensor {
	w := tensor.New(window, inCh)
	d := w.Data()
	start := len(rows) - window
	for i := 0; i < window; i++ {
		copy(d[i*inCh:(i+1)*inCh], rows[start+i])
	}
	for _, c := range rebaseCols {
		v0 := d[c]
		for i := 0; i < window; i++ {
			d[i*inCh+c] -= v0
		}
	}
	return w
}

func pushRandomRow(rng *rand.Rand, inCh int) []float64 {
	r := make([]float64, inCh)
	for c := range r {
		r[c] = rng.NormFloat64()
	}
	return r
}

// TestStreamerBitIdenticalToPredict drives random streams through the
// incremental path and the full-window batch path at every aligned
// stride and requires bit-equality, across geometries that exercise
// rebased (batch-form) branches, partial pool tails, small rings,
// filter counts that leave ragged SIMD lane tiles, conv windows
// (Kernel·InCh) from 1 up to the lane kernels' limit of 31, and heads
// whose widths are not multiples of 4 or 8 over inputs that keep the
// head in its sparse or its dense order. At f64 the batch side is
// Network.Predict, whose Conv1D.Forward and Dense.Forward run the
// independent row-major kernels; the f32 streamer is held to its own
// BatchScore, and its head to the generic row-major kernels at f32. A
// conv window of 33 is too wide for the conv row kernels: compilation
// refuses it at both widths and the network scores in batch form
// through the row-major Conv1D.Forward.
func TestStreamerBitIdenticalToPredict(t *testing.T) {
	cases := []struct {
		name         string
		window, step int
		cols         [][2]int
		inCh         int
		filters      int
		kernel, pool int
		rebase       []int
		// Head shape and input: hidden units (16 when 0), the
		// probability an input value is zeroed, the conv bias shift,
		// and the f64 head order ("sparse" or "dense") some compared
		// stride must reach ("" when either is fine).
		hidden    int
		zeroFrac  float64
		biasShift float64
		headOrder string
		// refused: the stream must not compile; the batch form scores.
		refused bool
	}{
		{"paper-cnn", 40, 20, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 9, 8, 5, 2, []int{8}, 0, 0, 0, "", false},
		{"accel-only", 40, 20, [][2]int{{0, 3}}, 9, 8, 5, 2, nil, 0, 0, 0, "", false},
		{"partial-tail", 20, 2, [][2]int{{0, 2}, {2, 4}}, 4, 8, 4, 2, nil, 0, 0, 0, "", false},
		{"pool3", 30, 6, [][2]int{{0, 3}}, 3, 8, 5, 3, nil, 0, 0, 0, "", false},
		{"no-stream-all-rebased", 20, 4, [][2]int{{0, 2}}, 2, 8, 3, 2, []int{0}, 0, 0, 0, "", false},
		{"ragged-filters-7", 40, 20, [][2]int{{0, 3}, {3, 6}}, 6, 7, 5, 2, []int{5}, 0, 0, 0, "", false},
		{"ragged-filters-12", 20, 2, [][2]int{{0, 2}, {2, 4}}, 4, 12, 4, 2, nil, 0, 0, 0, "", false},
		{"kc-1", 20, 4, [][2]int{{0, 1}, {1, 2}}, 2, 5, 1, 2, []int{1}, 0, 0, 0, "", false},
		{"kc-30", 40, 20, [][2]int{{0, 3}, {3, 6}}, 6, 16, 10, 2, []int{5}, 0, 0, 0, "", false},
		{"kc-33-row-major", 40, 20, [][2]int{{0, 3}, {3, 6}}, 6, 6, 11, 4, []int{5}, 0, 0, 0, "", true},
		{"head-13-mostly-zero", 40, 20, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 9, 8, 5, 2, []int{8}, 13, 0.9, -0.5, "sparse", false},
		{"head-37-dense", 40, 20, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 9, 8, 5, 2, []int{8}, 37, 0, 1, "dense", false},
		{"head-70-ragged", 20, 2, [][2]int{{0, 2}, {2, 4}}, 4, 12, 4, 2, nil, 70, 0.3, 0, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			hidden := tc.hidden
			if hidden == 0 {
				hidden = 16
			}
			net := streamHeadNet(t, tc.window, tc.cols, tc.filters, tc.kernel, tc.pool, hidden, tc.biasShift, rng)
			cfg := StreamConfig{InCh: tc.inCh, Window: tc.window, Step: tc.step, RebaseCols: tc.rebase}
			if tc.refused {
				checkRefusedScoresInBatch(t, net, cfg, rng)
				return
			}
			st, err := NewStreamer(net, cfg)
			if err != nil {
				t.Fatalf("NewStreamer: %v", err)
			}
			st32, err := NewStreamerOf[float32](net, cfg)
			if err != nil {
				t.Fatalf("NewStreamerOf[float32]: %v", err)
			}
			row32 := make([]float32, tc.inCh)
			var rows [][]float64
			compared := 0
			orders := map[string]bool{}
			for i := 0; i < 5*tc.window; i++ {
				row := pushRandomRow(rng, tc.inCh)
				zeroRow(rng, row, tc.zeroFrac)
				rows = append(rows, row)
				st.Push(row)
				for c, v := range row {
					row32[c] = float32(v)
				}
				st32.Push(row32)
				if len(rows) < tc.window || (len(rows)-tc.window)%tc.step != 0 {
					continue
				}
				if !st.Ready() || !st32.Ready() {
					t.Fatalf("streamer not Ready at stride %d", len(rows))
				}
				got := st.Score()
				want := net.Predict(assembleRebased(rows, tc.window, tc.inCh, tc.rebase))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: incremental %x (%.17g), batch %x (%.17g)",
						len(rows), math.Float64bits(got), got, math.Float64bits(want), want)
				}
				zeros := 0
				for _, v := range st.cat {
					if v == 0 {
						zeros++
					}
				}
				if zeros >= len(st.cat)/8 {
					orders["sparse"] = true
				} else {
					orders["dense"] = true
				}
				got32 := st32.Score()
				if want := rowMajorHead(net, st32.cat); math.Float64bits(got32) != math.Float64bits(want) {
					t.Fatalf("row %d: f32 head %.9g, row-major f32 head %.9g", len(rows), got32, want)
				}
				if want := st32.BatchScore(); math.Float64bits(got32) != math.Float64bits(want) {
					t.Fatalf("row %d: f32 incremental %.9g, f32 batch %.9g", len(rows), got32, want)
				}
				compared++
			}
			if compared == 0 {
				t.Fatal("no strides compared")
			}
			if tc.headOrder != "" && !orders[tc.headOrder] {
				t.Fatalf("no stride ran the f64 head in its %s order (saw %v)", tc.headOrder, orders)
			}
		})
	}
}

// checkRefusedScoresInBatch requires net to fail compilation for cfg at
// both widths, and its batch form — Network.Predict, the fallback
// every caller takes on that error — to score every stride of a random
// stream with a probability, the same bits on a second call.
func checkRefusedScoresInBatch(t *testing.T, net *Network, cfg StreamConfig, rng *rand.Rand) {
	t.Helper()
	if _, err := CompileOf[float64](net, cfg); err == nil {
		t.Fatal("float64 compilation accepted the network")
	}
	if _, err := CompileOf[float32](net, cfg); err == nil {
		t.Fatal("float32 compilation accepted the network")
	}
	var rows [][]float64
	for i := 0; i < 3*cfg.Window; i++ {
		rows = append(rows, pushRandomRow(rng, cfg.InCh))
		if len(rows) < cfg.Window || (len(rows)-cfg.Window)%cfg.Step != 0 {
			continue
		}
		win := assembleRebased(rows, cfg.Window, cfg.InCh, cfg.RebaseCols)
		p := net.Predict(win)
		if !(p >= 0 && p <= 1) {
			t.Fatalf("row %d: batch score %v is not a probability", len(rows), p)
		}
		if again := net.Predict(win); math.Float64bits(again) != math.Float64bits(p) {
			t.Fatalf("row %d: batch score %v, then %v", len(rows), p, again)
		}
	}
}

// TestStreamerRestartRebuild kills a streamer mid-stream, rebuilds a
// fresh one from the last min(count, window) rows via Restart, and
// requires every subsequent decision to match the uninterrupted
// streamer bit-for-bit — the invariant cascade snapshot/restore and
// serve crash-replay lean on.
func TestStreamerRestartRebuild(t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(11))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, rng)
	cfg := StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}}
	orig, err := NewStreamer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for i := 0; i < 2*window+7; i++ { // kill point deliberately off-stride
		row := pushRandomRow(rng, inCh)
		rows = append(rows, row)
		orig.Push(row)
	}
	rebuilt, err := NewStreamer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := window
	if len(rows) < n {
		n = len(rows)
	}
	rebuilt.Restart(len(rows) - n)
	for _, row := range rows[len(rows)-n:] {
		rebuilt.Push(row)
	}
	for i := 0; i < 3*window; i++ {
		row := pushRandomRow(rng, inCh)
		rows = append(rows, row)
		orig.Push(row)
		rebuilt.Push(row)
		if len(rows) >= window && (len(rows)-window)%step == 0 {
			if !orig.Ready() || !rebuilt.Ready() {
				t.Fatalf("not ready at %d", len(rows))
			}
			a, b := orig.Score(), rebuilt.Score()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("row %d: original %x, rebuilt %x", len(rows), math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

// TestStreamerRejectsUnsupported: topologies the incremental path
// cannot cache must fail construction so callers fall back to batch.
func TestStreamerRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewNetwork(NewFlatten(), NewDense(80, 8, rng), NewReLU(), NewDense(8, 1, rng), NewSigmoid())
	if _, err := NewStreamer(mlp, StreamConfig{InCh: 4, Window: 20, Step: 10}); err == nil {
		t.Fatal("MLP accepted")
	}
	conv := NewNetwork(
		NewBranch([][2]int{{0, 2}}, [][]Layer{{NewConv1D(2, 4, 3, rng), NewReLU(), NewMaxPool1D(2)}}),
		NewDense(36, 4, rng),
		NewTanh(),
		NewMaxPool1D(2), // 2-D-only layer in the head
		NewDense(2, 1, rng),
		NewSigmoid(),
	)
	if _, err := NewStreamer(conv, StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("maxpool head accepted")
	}
	if _, err := NewStreamer(NewNetwork(), StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("empty network accepted")
	}
	// Any branch stack but Conv1D→ReLU→MaxPool1D, at either width.
	convPoolReLU := NewNetwork(
		NewBranch([][2]int{{0, 2}}, [][]Layer{{NewConv1D(2, 4, 3, rng), NewMaxPool1D(2), NewReLU()}}),
		NewDense(36, 1, rng),
		NewSigmoid(),
	)
	if _, err := NewStreamer(convPoolReLU, StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("Conv→MaxPool→ReLU stack accepted at float64")
	}
	if _, err := NewStreamerOf[float32](convPoolReLU, StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("Conv→MaxPool→ReLU stack accepted at float32")
	}
	net := streamTestNet(t, 20, [][2]int{{0, 2}}, 4, 3, 2, rng)
	if _, err := NewStreamer(net, StreamConfig{InCh: 2, Window: 20, Step: 10, RebaseCols: []int{5}}); err == nil {
		t.Fatal("out-of-range rebase column accepted")
	}
	// Step not a multiple of Pool: valid, but the branch cannot stream.
	st, err := NewStreamer(net, StreamConfig{InCh: 2, Window: 20, Step: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Streaming() {
		t.Fatal("misaligned stride reported as streaming")
	}
	if st2, err := NewStreamer(net, StreamConfig{InCh: 2, Window: 20, Step: 4}); err != nil || !st2.Streaming() {
		t.Fatalf("aligned stride should stream (err=%v)", err)
	}
}

// TestStreamerAllocationFree: steady-state Push and Score stay off the
// heap, including the batch-form rebased branch.
func TestStreamerAllocationFree(t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(5))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, rng)
	st, err := NewStreamer(net, StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	row := pushRandomRow(rng, inCh)
	for i := 0; i < 3*window; i++ { // warm every ring and layer scratch
		st.Push(row)
		if st.Ready() {
			st.Score()
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		st.Push(row)
		if st.Ready() {
			st.Score()
		}
	}); n != 0 {
		t.Fatalf("Push+Score allocates %.1f/op", n)
	}
}

// TestProgramSharedByStreamers: one compiled program serves several
// streams at once. Each stream, fed its own rows interleaved with the
// others, stays bit-identical to Predict on its own windows, and the
// program's Fits accepts exactly the geometry it was compiled for.
func TestProgramSharedByStreamers(t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(13))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, rng)
	cfg := StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}}
	prog, err := CompileOf[float64](net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Fits(cfg) || prog.Fits(StreamConfig{InCh: inCh, Window: window, Step: step}) ||
		prog.Fits(StreamConfig{InCh: inCh, Window: window, Step: 10, RebaseCols: []int{8}}) {
		t.Fatal("Fits disagrees with the compiled geometry")
	}
	sts := []*Streamer{prog.NewStreamer(), prog.NewStreamer(), prog.NewStreamer()}
	rows := make([][][]float64, len(sts))
	for i := 0; i < 4*window; i++ {
		for k, st := range sts {
			row := pushRandomRow(rng, inCh)
			rows[k] = append(rows[k], row)
			st.Push(row)
			if len(rows[k]) < window || (len(rows[k])-window)%step != 0 {
				continue
			}
			got := st.Score()
			want := net.Predict(assembleRebased(rows[k], window, inCh, cfg.RebaseCols))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stream %d row %d: incremental %.17g, batch %.17g", k, len(rows[k]), got, want)
			}
		}
	}
}

// TestLaneWeightsShared: programs compiled from one network share its
// wide head layer's lane copy at each width while the weights are
// unchanged; a weight changed after compiling gives the next program
// a fresh copy and leaves the earlier program's copy as it was.
func TestLaneWeightsShared(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := streamHeadNet(t, 40, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, 64, 0, rng)
	cfg := StreamConfig{InCh: 9, Window: 40, Step: 20, RebaseCols: []int{8}}
	checkLaneWeightsShared[float64](t, net, cfg)
	checkLaneWeightsShared[float32](t, net, cfg)
}

func checkLaneWeightsShared[S tensor.Scalar](t *testing.T, net *Network, cfg StreamConfig) {
	t.Helper()
	compile := func() []S {
		p, err := CompileOf[S](net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !p.head[0].lanes {
			t.Fatal("first head layer not compiled for the lane kernels")
		}
		return p.head[0].w
	}
	a, b := compile(), compile()
	if &a[0] != &b[0] {
		t.Fatal("two compilations of an unchanged network hold separate head copies")
	}
	w := net.Layers[1].(*Dense).Weight.W.Data()
	before := a[0]
	w[0] += 1
	c := compile()
	if &c[0] == &a[0] || math.Float64bits(float64(a[0])) != math.Float64bits(float64(before)) {
		t.Fatal("a weight changed after compiling reached an earlier program or was not recompiled")
	}
	if math.Float64bits(float64(c[0])) != math.Float64bits(float64(S(w[0]))) {
		t.Fatalf("recompiled head weight %v, want %v", c[0], S(w[0]))
	}
}
