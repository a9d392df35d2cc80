package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Dense is a fully connected layer y = W·x + b over 1-D inputs.
type Dense struct {
	In, Out int
	Weight  *Param // [Out × In]
	Bias    *Param // [Out]

	x     *tensor.Tensor // forward cache
	y, dx *tensor.Tensor // scratch, reused across calls

	// lanes holds the head lane kernels' copy of Weight at each width
	// (index 0 float64, 1 float32), shared by every program compiled
	// from this layer while its weights are unchanged (laneWeights).
	lanesMu sync.Mutex
	lanes   [2]any
}

// NewDense returns a Glorot-initialised fully connected layer.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: newParam("dense.w", out, in),
		Bias:   newParam("dense.b", out),
	}
	glorotInit(d.Weight.W, in, out, rng)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d→%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.In {
		return nil, fmt.Errorf("nn: %s cannot take input %v", d.Name(), in)
	}
	return []int{d.Out}, nil
}

// badInput and badGrad keep checkShape's argument allocations (Sprintf
// name, shape literal) off the fast paths.
//
//fallvet:cold panic-guard: allocates only to format the failing-shape report
func (d *Dense) badInput(x *tensor.Tensor) {
	checkShape(d.Name(), x.Shape(), []int{d.In})
}

//fallvet:cold panic-guard: allocates only to format the failing-shape report
func (d *Dense) badGrad(grad *tensor.Tensor) {
	checkShape(d.Name()+" grad", grad.Shape(), []int{d.Out})
}

// Forward implements Layer.
//
//fallvet:hotpath
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 1 || x.Dim(0) != d.In {
		d.badInput(x)
	}
	if train {
		d.x = x
	}
	y := tensor.Reuse(d.y, d.Out)
	d.y = y
	matVecBias(y.Data(), x.Data(), d.Weight.W.Data(), d.Bias.W.Data(), d.Out, d.In)
	return y
}

// Backward implements Layer.
//
//fallvet:hotpath
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad.Dims() != 1 || grad.Dim(0) != d.Out {
		d.badGrad(grad)
	}
	gd, xd := grad.Data(), d.x.Data()
	wg, wd := d.Weight.G.Data(), d.Weight.W.Data()
	dx := tensor.Reuse(d.dx, d.In)
	d.dx = dx
	dx.Zero() // the loop below accumulates into reused scratch
	dxd := dx.Data()
	for o := 0; o < d.Out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := wd[o*d.In : (o+1)*d.In]
		grow := wg[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * xd[i]
			dxd[i] += g * row[i]
		}
	}
	bg := d.Bias.G.Data()
	for o := 0; o < d.Out; o++ {
		bg[o] += gd[o]
	}
	return dx
}
