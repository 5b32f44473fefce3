package funcsim

import (
	"fmt"
	"math"
	"math/rand"

	"mnsim/internal/mapper"
	"mnsim/internal/nn"
)

// ConvOptions controls RunConv.
type ConvOptions struct {
	Stride, Pad int
	// InjectError / Rng mirror RunOptions.
	InjectError bool
	Rng         *rand.Rand
}

// RunConv executes one convolutional layer through the mapped crossbars:
// the kernel stack becomes the (kw·kh·Cin)×Cout matrix of a computation
// bank (Section II.B.3), the mapper programs it onto crossbar blocks, and
// every output position's Im2Col patch drives one analog pass — the
// stream the Fig. 1(f) line buffers feed in hardware. Inputs must lie in
// [0,1] (a non-finite input is an error naming its index in in.Data);
// outputs are in the layer's normalised signed scale.
func (m *Machine) RunConv(in *nn.Tensor3, kernels *nn.ConvKernels, opt ConvOptions) (*nn.Tensor3, error) {
	if opt.InjectError && opt.Rng == nil {
		return nil, fmt.Errorf("funcsim: error injection needs an RNG")
	}
	for i, x := range in.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("funcsim: conv layer: non-finite input %v at index %d", x, i)
		}
	}
	img, err := mapper.Map(m.Design, kernels.Matrix())
	if err != nil {
		return nil, err
	}
	// The kernel image is compiled once and drives every output patch.
	ci, err := m.exec.compile(img)
	if err != nil {
		return nil, err
	}
	stride, pad := opt.Stride, opt.Pad
	if stride == 0 {
		stride = 1
	}
	runOpt := RunOptions{InjectError: opt.InjectError, Rng: opt.Rng}
	sc := m.exec.scratch()
	return nn.ConvByMVM(in, kernels, stride, pad, func(_ [][]float64, patch []float64) ([]float64, error) {
		return m.exec.run(ci, patch, sc, runOpt)
	})
}
