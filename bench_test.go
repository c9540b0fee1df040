package gist_test

// Benchmarks, one per paper table/figure (the harnesses that regenerate
// them) plus micro-benchmarks of the encoding kernels, the allocator and
// the training step, and ablation benches for the design choices DESIGN.md
// calls out (narrow vs wide CSR indices, static vs dynamic allocation).

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gist"
	"gist/internal/bitpack"
	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/experiments"
	"gist/internal/floatenc"
	gGraph "gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/networks"
	"gist/internal/parallel"
	"gist/internal/race"
	"gist/internal/sparse"
	"gist/internal/telemetry"
	"gist/internal/tensor"
	"gist/internal/train"
)

// skipIfRace skips a benchmark under `go test -race`: these benches are
// single-goroutine full-experiment harnesses whose only effect under the
// race detector is a ~10x slower CI run.
func skipIfRace(b *testing.B) {
	if race.Enabled {
		b.Skip("benchmark skipped under -race (no concurrency to check)")
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig1(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig1(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig3(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig3(experiments.DefaultMinibatch)
	}
}

func BenchmarkTable1(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1()
	}
}

func BenchmarkFig8(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig8(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig9(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig9(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig10(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig10(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig11(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig11(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig12(b *testing.B) {
	skipIfRace(b)
	// Reduced scale: the full accuracy study is a multi-seed training
	// run; the bench exercises one seed at a quarter of the steps.
	s := experiments.DefaultTrainScale()
	s.Steps = 50
	s.Seeds = []uint64{42}
	s.ErrorDepth = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig12(s)
	}
}

func BenchmarkFig13(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig13(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig14(b *testing.B) {
	skipIfRace(b)
	s := experiments.DefaultSparsityScale()
	s.Steps = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig14(s)
	}
}

func BenchmarkFig15(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig15(experiments.DefaultMinibatch)
	}
}

func BenchmarkFig16(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig16()
	}
}

func BenchmarkFig17(b *testing.B) {
	skipIfRace(b)
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig17(experiments.DefaultMinibatch)
	}
}

// --- encoding kernel micro-benchmarks ---

const kernelElems = 1 << 20

func sparseInput(sparsity float64) []float32 {
	r := tensor.NewRNG(1)
	xs := make([]float32, kernelElems)
	for i := range xs {
		if r.Float64() >= sparsity {
			xs[i] = r.Float32() - 0.5
		}
	}
	return xs
}

func BenchmarkBinarizeEncode(b *testing.B) {
	skipIfRace(b)
	xs := sparseInput(0.5)
	b.SetBytes(kernelElems * 4)
	for i := 0; i < b.N; i++ {
		_ = bitpack.FromPositive(xs)
	}
}

func BenchmarkBinarizeGate(b *testing.B) {
	skipIfRace(b)
	xs := sparseInput(0.5)
	m := bitpack.FromPositive(xs)
	dy := sparseInput(0)
	dx := make([]float32, kernelElems)
	b.SetBytes(kernelElems * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyGate(dx, dy)
	}
}

func BenchmarkDPRQuantize(b *testing.B) {
	skipIfRace(b)
	for _, f := range []floatenc.Format{floatenc.FP16, floatenc.FP10, floatenc.FP8} {
		f := f
		b.Run(f.String(), func(b *testing.B) {
			xs := sparseInput(0)
			b.SetBytes(kernelElems * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				floatenc.QuantizeSlice(f, xs)
			}
		})
	}
}

func BenchmarkDPRPackUnpack(b *testing.B) {
	skipIfRace(b)
	xs := sparseInput(0)
	b.SetBytes(kernelElems * 4)
	for i := 0; i < b.N; i++ {
		p := floatenc.EncodeSlice(floatenc.FP8, xs)
		p.DecodeSlice(xs)
	}
}

// --- ablation benches ---

// BenchmarkAblationNarrowVsWideCSR reports the compression each index
// width achieves across the sparsity range, from the size models (the
// runtime holds no CSR).
func BenchmarkAblationNarrowVsWideCSR(b *testing.B) {
	skipIfRace(b)
	for _, sp := range []float64{0.2, 0.5, 0.8} {
		sp := sp
		b.Run(spName(sp), func(b *testing.B) {
			var last int64
			for i := 0; i < b.N; i++ {
				last = sparse.CSRBytesModel(kernelElems, sp)
			}
			dense := int64(kernelElems * 4)
			b.ReportMetric(float64(dense)/float64(last), "narrow-ratio")
			b.ReportMetric(float64(dense)/float64(sparse.CSRWideBytesModel(kernelElems, 4096, sp)), "wide-ratio")
		})
	}
}

func spName(sp float64) string {
	switch sp {
	case 0.2:
		return "sparsity20"
	case 0.5:
		return "sparsity50"
	default:
		return "sparsity80"
	}
}

// BenchmarkAblationAllocators compares the static sharing allocator to the
// dynamic peak computation on VGG16's buffer set.
func BenchmarkAblationAllocators(b *testing.B) {
	skipIfRace(b)
	g := networks.VGG16(64)
	tl := gGraph.BuildTimeline(g)
	bufs := liveness.Analyze(g, tl, liveness.Options{})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = memplan.PlanStatic(bufs)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = memplan.PlanDynamic(bufs)
		}
	})
}

// BenchmarkScheduleBuilder measures a full Gist planning pass at paper
// scale.
func BenchmarkScheduleBuilder(b *testing.B) {
	skipIfRace(b)
	g := networks.VGG16(64)
	cfg := gist.LossyLossless(gist.FP16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gist.MustBuild(gist.Request{Graph: g, Encodings: cfg})
	}
}

// BenchmarkTrainStep measures one real minibatch step with and without
// encodings round-tripping every stash, and with the chunk-parallel codec
// plus async backward decode on 4 workers.
func BenchmarkTrainStep(b *testing.B) {
	skipIfRace(b)
	run := func(b *testing.B, withEnc bool) {
		g := networks.TinyCNN(8, 4)
		opts := train.Options{Seed: 1}
		if withEnc {
			opts.Encodings = encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
		}
		e := train.NewExecutor(g, opts)
		d := train.NewDataset(4, 3, 16, 0.4, 2)
		x, labels := d.Batch(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step(x, labels, 0.01)
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("gist", func(b *testing.B) { run(b, true) })
	// gist-adaptive runs the server's "none" + "adaptive" job: the set
	// {ZVC, DPR} over the zero base, so every sparse stash is ZVC with the
	// one-hop dense DPR fallback and nothing else is encoded.
	b.Run("gist-adaptive", func(b *testing.B) {
		g := networks.TinyCNN(8, 4)
		cfg := encoding.Config{AdaptiveSet: encoding.AdaptiveAll()}
		e := train.NewExecutor(g, train.Options{Seed: 1, Encodings: encoding.Analyze(g, cfg)})
		d := train.NewDataset(4, 3, 16, 0.4, 2)
		x, labels := d.Batch(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step(x, labels, 0.01)
		}
	})
	b.Run("gist-parallel", func(b *testing.B) {
		encoding.SetDefaultCodec(encoding.Codec{Pool: parallel.NewPool(4)})
		defer encoding.SetDefaultCodec(encoding.Codec{})
		run(b, true)
	})
	// gist-pooled is the same encoded step drawing every per-step tensor from
	// a buffer pool. b.ReportAllocs makes the contrast with "gist" visible:
	// steady state should run within the allocs/op budget enforced by `make
	// allocs`, and the hit-rate metric should sit near 1.
	b.Run("gist-pooled", func(b *testing.B) {
		g := networks.TinyCNN(8, 4)
		pool := bufpool.New()
		e := train.NewExecutor(g, train.Options{
			Seed:      1,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
			Pool:      pool,
		})
		d := train.NewDataset(4, 3, 16, 0.4, 2)
		x, labels := d.Batch(8)
		// Warm the step arena so b.N=1 runs don't report the first-step
		// misses as the steady state.
		for i := 0; i < 3; i++ {
			e.Step(x, labels, 0.01)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step(x, labels, 0.01)
		}
		b.StopTimer()
		b.ReportMetric(pool.Stats().HitRate(), "pool-hit-rate")
	})
	// gist-replicas is the pooled encoded step on the data-parallel replica
	// engine: 2 replicas, 2 micro-shards of batch 4 (the same 8 samples per
	// step as gist-pooled), merged with the deterministic tree reduce.
	// Steady state must stay inside the same allocs/op budget — the shard
	// gradient buffers come from the pool and the reduce reuses its bound
	// chunk closures, so scaling out adds no per-step allocation.
	b.Run("gist-replicas", func(b *testing.B) {
		g := networks.TinyCNN(4, 4)
		pool := bufpool.New()
		rg := train.NewReplicaGroup(g, train.Options{
			Seed:      1,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
			Pool:      pool,
		}, train.ReplicaConfig{Replicas: 2, Shards: 2})
		defer rg.Close()
		d := train.NewDataset(4, 3, 16, 0.4, 2)
		x, labels := d.Batch(rg.Batch())
		for i := 0; i < 3; i++ {
			rg.Step(x, labels, 0.01)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rg.Step(x, labels, 0.01)
		}
		b.StopTimer()
		b.ReportMetric(pool.Stats().HitRate(), "pool-hit-rate")
	})
	// gist-stashchain is the pooled step on a graph whose maps span several
	// codec chunks — the StashNet-shaped 1x1-conv chain — with a 2-worker
	// codec, integrity, the adaptive set and a stash budget that spills, so
	// every chunk kernel, the parallel seal/verify roll-up and the spill page
	// round trip run on the measured path (TinyCNN's maps fit one chunk).
	// Steady state stays inside the same allocs/op budget.
	b.Run("gist-stashchain", func(b *testing.B) {
		g := stashChain(4)
		cfg := encoding.LossyLossless(floatenc.FP16)
		cfg.AdaptiveSet = encoding.AdaptiveAll()
		e := train.NewExecutor(g, train.Options{
			Seed:        1,
			Encodings:   encoding.Analyze(g, cfg),
			Pool:        bufpool.New(),
			Integrity:   true,
			Codec:       &encoding.Codec{Pool: parallel.NewPool(2)},
			StashBudget: 64 << 10,
			SpillDir:    b.TempDir(),
		})
		defer e.Close()
		x, labels := train.NewDataset(4, 4, 64, 0.4, 2).Batch(4)
		// A longer warm-up than the TinyCNN rows: the containers, spill
		// page buffers and per-P task pools settle over a few dozen steps.
		for i := 0; i < 30; i++ {
			e.Step(x, labels, 0.005)
		}
		before := e.StashStore().Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step(x, labels, 0.005)
		}
		b.StopTimer()
		b.ReportMetric(float64(e.StashStore().Stats().Misses-before.Misses)/float64(b.N), "spill-reads/op")
	})
	// gist-telemetry runs the same encoded step with a live sink attached and
	// reports the memory story alongside ns/op: stash bytes held per step, the
	// compression ratio, the share of decode futures already resolved when
	// their consumer asked (overlap-hit) and the share of encodes already
	// finished when their stash settled (encode-overlap-hit), all pulled from
	// the sink's own counters. The "gist" sub-bench above stays uninstrumented so the
	// nil-sink overhead comparison against the baseline remains honest.
	b.Run("gist-telemetry", func(b *testing.B) {
		g := networks.TinyCNN(8, 4)
		sink := telemetry.New()
		e := train.NewExecutor(g, train.Options{
			Seed:      1,
			Encodings: encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16)),
			Telemetry: sink,
		})
		d := train.NewDataset(4, 3, 16, 0.4, 2)
		x, labels := d.Batch(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step(x, labels, 0.01)
		}
		b.StopTimer()
		v := sink.Values()
		var raw, held int64
		for name, val := range v {
			switch {
			case strings.HasPrefix(name, "stash.") && strings.HasSuffix(name, ".raw_bytes"):
				raw += val
			case strings.HasPrefix(name, "stash.") && strings.HasSuffix(name, ".held_bytes"):
				held += val
			}
		}
		if steps := v["train.steps"]; steps > 0 && held > 0 {
			b.ReportMetric(float64(held)/float64(steps), "stash-B/step")
			b.ReportMetric(float64(raw)/float64(held), "ratio")
		}
		if hits, misses := v["train.overlap.hits"], v["train.overlap.misses"]; hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "overlap-hit")
		}
		if hits, misses := v["train.encode_overlap.hits"], v["train.encode_overlap.misses"]; hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "encode-overlap-hit")
		}
	})
}

// stashChain is the StashNet shape of the stash workloads (and of the train
// package's schedule tests): wide maps over 1x1 convolutions, so at minibatch
// 4 the largest maps span two default-size codec chunks.
func stashChain(mb int) *gGraph.Graph {
	g := gGraph.New()
	last := g.MustAdd("input", layers.NewInput(mb, 4, 64, 64))
	seq := 0
	add := func(prefix string, op layers.Op) {
		seq++
		last = g.MustAdd(fmt.Sprintf("%s%d", prefix, seq), op, last)
	}
	for _, pool := range []int{0, 2, 2, 4} {
		add("conv", layers.NewConv2D(8, 1, 1, 0))
		add("relu", layers.NewReLU())
		if pool > 0 {
			add("pool", layers.NewMaxPool(pool, pool, 0))
		}
	}
	add("fc", layers.NewFC(32))
	add("relu", layers.NewReLU())
	add("fc", layers.NewFC(4))
	g.MustAdd("loss", layers.NewSoftmaxXent(), last)
	return g
}

// --- parallel codec benchmarks ---
//
// Each kernel bench gains a Parallel variant swept over worker counts; the
// w1 sub-bench is the serial baseline on the same chunked code path, so the
// speedup at w>1 is directly attributable to the pool. Output of every
// variant is byte-identical to the serial kernel (pinned by the encoding
// property tests), so these measure pure scheduling gain.

// benchWorkers returns the deduplicated worker counts the parallel bench
// variants sweep.
func benchWorkers() []int {
	seen := map[int]bool{}
	var ws []int
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if w >= 1 && !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	return ws
}

func wName(w int) string { return fmt.Sprintf("w%d", w) }

func BenchmarkBinarizeEncodeParallel(b *testing.B) {
	skipIfRace(b)
	t := tensor.New(kernelElems)
	copy(t.Data, sparseInput(0.5))
	as := &encoding.Assignment{Tech: encoding.Binarize, Format: floatenc.FP32}
	for _, w := range benchWorkers() {
		b.Run(wName(w), func(b *testing.B) {
			c := encoding.Codec{Pool: parallel.NewPool(w)}
			enc := &encoding.EncodedStash{}
			b.SetBytes(kernelElems * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EncodeStashInto(enc, as, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeIntoParallel is the whole-map decode of each container
// through Codec.DecodeInto: the stored-stash cursor run once per chunk.
func BenchmarkDecodeIntoParallel(b *testing.B) {
	skipIfRace(b)
	for _, tc := range []struct {
		name     string
		tech     encoding.Technique
		format   floatenc.Format
		sparsity float64
	}{
		{"binarize", encoding.Binarize, floatenc.FP32, 0.5},
		{"zvc-fp16", encoding.ZVC, floatenc.FP16, 0.7},
		{"dpr-fp16", encoding.DPR, floatenc.FP16, 0},
		{"dpr-fp32", encoding.DPR, floatenc.FP32, 0},
	} {
		t := tensor.New(kernelElems)
		copy(t.Data, sparseInput(tc.sparsity))
		enc := &encoding.EncodedStash{}
		as := &encoding.Assignment{Tech: tc.tech, Format: tc.format}
		if err := (encoding.Codec{}).EncodeStashInto(enc, as, t); err != nil {
			b.Fatal(err)
		}
		dst := tensor.New(kernelElems)
		for _, w := range benchWorkers() {
			b.Run(tc.name+"/"+wName(w), func(b *testing.B) {
				c := encoding.Codec{Pool: parallel.NewPool(w)}
				b.SetBytes(kernelElems * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeInto(dst, enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkDPRPackUnpackParallel(b *testing.B) {
	skipIfRace(b)
	xs := sparseInput(0)
	const chunk = encoding.DefaultChunkElems
	nChunks := (kernelElems + chunk - 1) / chunk
	span := func(c int) (int, int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > kernelElems {
			hi = kernelElems
		}
		return lo, hi
	}
	for _, w := range benchWorkers() {
		b.Run(wName(w), func(b *testing.B) {
			p := parallel.NewPool(w)
			b.SetBytes(kernelElems * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk := floatenc.NewPacked(floatenc.FP8, kernelElems)
				p.ForEach(nChunks, parallel.Func(func(c int) {
					lo, hi := span(c)
					pk.EncodeRange(xs, lo, hi)
				}))
				p.ForEach(nChunks, parallel.Func(func(c int) {
					lo, hi := span(c)
					pk.DecodeRange(xs, lo, hi)
				}))
			}
		})
	}
}

// BenchmarkSealVerifyParallel measures the chunked CRC roll-up against the
// payload size (Seal hashes chunks on the pool; Verify re-hashes).
func BenchmarkSealVerifyParallel(b *testing.B) {
	skipIfRace(b)
	t := tensor.New(kernelElems)
	copy(t.Data, sparseInput(0))
	as := &encoding.Assignment{Tech: encoding.DPR, Format: floatenc.FP16}
	for _, w := range benchWorkers() {
		b.Run(wName(w), func(b *testing.B) {
			c := encoding.Codec{Pool: parallel.NewPool(w)}
			enc := &encoding.EncodedStash{}
			if err := c.EncodeStashInto(enc, as, t); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(kernelElems * 2) // FP16 payload bytes hashed twice
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Seal(enc)
				if err := c.Verify(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
