package gist_test

// Compile-time API compatibility: every public symbol of the facade, old
// and new, pinned to its exact signature. A refactor that renames, retypes
// or drops any of these fails this file's compilation — the facade's
// stability contract.

import (
	"gist"
	"gist/internal/train"
)

// Pre-Trainer surface (the planning facade), pinned as it shipped.
var (
	_ func() *gist.Graph                                             = gist.NewGraph
	_ func(gist.Request) (*gist.Plan, error)                         = gist.Build
	_ func(gist.Request) *gist.Plan                                  = gist.MustBuild
	_ func() gist.Config                                             = gist.Lossless
	_ func(gist.Format) gist.Config                                  = gist.LossyLossless
	_ func() gist.Device                                             = gist.TitanX
	_ func(gist.Device, func(int) *gist.Graph, gist.Config, int) int = gist.LargestFittingMinibatch
	_ func(int) *gist.Graph                                          = gist.AlexNet
	_ func(int) *gist.Graph                                          = gist.NiN
	_ func(int) *gist.Graph                                          = gist.Overfeat
	_ func(int) *gist.Graph                                          = gist.VGG16
	_ func(int) *gist.Graph                                          = gist.Inception
	_ func(int) *gist.Graph                                          = gist.ResNet50
	_ func(int, int) *gist.Graph                                     = gist.ResNetCIFAR
	_ [4]gist.Format                                                 = [...]gist.Format{gist.FP32, gist.FP16, gist.FP10, gist.FP8}
	_ [2]int                                                         = [...]int{int(gist.StaticAllocation), int(gist.DynamicAllocation)}
	_ *gist.Node                                                     = (*gist.Node)(nil)
)

// Trainer surface added by the pooling redesign.
var (
	_ func(int, int) *gist.Graph                                              = gist.TinyCNN
	_ func(int, int) *gist.Graph                                              = gist.TinyVGG
	_ func(...int) *gist.Tensor                                               = gist.NewTensor
	_ func(int, int, int, float64, uint64) *gist.Dataset                      = gist.NewDataset
	_ func() *gist.Telemetry                                                  = gist.NewTelemetry
	_ func() *gist.BufferPool                                                 = gist.NewBufferPool
	_ func() *gist.BufferPool                                                 = gist.SharedBufferPool
	_ func(*gist.Graph, ...gist.TrainerOption) *gist.Trainer                  = gist.NewTrainer
	_ func(uint64) gist.TrainerOption                                         = gist.WithSeed
	_ func(gist.Config) gist.TrainerOption                                    = gist.WithEncodings
	_ func() gist.TrainerOption                                               = gist.WithIntegrity
	_ func(int) gist.TrainerOption                                            = gist.WithParallelism
	_ func(*gist.Telemetry) gist.TrainerOption                                = gist.WithTelemetry
	_ func(...*gist.BufferPool) gist.TrainerOption                            = gist.WithPooling
	_ func(gist.FaultConfig) gist.TrainerOption                               = gist.WithFaults
	_ func(*gist.Trainer, *gist.Tensor, []int, float32) (float64, int, error) = (*gist.Trainer).Step
	_ func(*gist.Trainer, *gist.Tensor, []int) (float64, int)                 = (*gist.Trainer).Eval
	_ func(*gist.Trainer, *gist.Dataset, gist.RunConfig) []gist.Record        = (*gist.Trainer).Run
	_ func(*gist.Trainer) *train.Executor                                     = (*gist.Trainer).Executor
	_ func(*gist.Trainer) *gist.Telemetry                                     = (*gist.Trainer).Telemetry
	_ func(*gist.Trainer) gist.PoolStats                                      = (*gist.Trainer).PoolStats
)
