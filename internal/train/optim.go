package train

import (
	"gist/internal/layers"
	"gist/internal/tensor"
)

// Eval runs an inference-mode forward pass (dropout off, batch-norm
// running statistics) and returns the loss and top-1 error count on the
// given labeled minibatch.
func (e *Executor) Eval(input *tensor.Tensor, labels []int) (loss float64, errors int) {
	e.Forward(input, labels, false)
	return e.lossOf(labels)
}

// lossOf reads the loss node's probabilities from the latest forward pass.
func (e *Executor) lossOf(labels []int) (float64, int) {
	lossNode := e.lossNode()
	sm := lossNode.Op.(*layers.SoftmaxXentOp)
	return sm.Loss(e.outs[lossNode.ID], labels)
}
