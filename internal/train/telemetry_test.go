package train

import (
	"context"
	"strings"
	"testing"
	"time"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
)

// TestTelemetryCrossChecksReportAndInjector is the reconciliation wall: one
// fault-injected recoverable run, after which the telemetry snapshot, the
// RecoveryReport and the injector's own event log must agree counter for
// counter. The executor mirrors every RobustnessStats increment and the
// injector mirrors every recorded event, so any drift between the three
// views is a wiring bug this test catches.
func TestTelemetryCrossChecksReportAndInjector(t *testing.T) {
	g := smallNet(4)
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	inj := faults.New(faults.Config{
		Seed:           99,
		BitFlipRate:    0.06,
		EncodeFailRate: 0.03,
		DecodeFailRate: 0.03,
	})
	sink := telemetry.New()
	sink.EnableTracing(0)
	e := NewExecutor(g, Options{Seed: 9, Encodings: a, Faults: inj, Telemetry: sink})
	if e.Telemetry() != sink {
		t.Fatal("executor dropped the sink")
	}
	d := NewDataset(4, 2, 8, 0.3, 13)

	var periodic strings.Builder
	_, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 40, LR: 0.05, ProbeEvery: 10,
			MetricsEvery: 20, MetricsOut: &periodic},
		RecoveryConfig{MaxRetries: 25, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatalf("run did not survive: %v", err)
	}

	v := sink.Values()
	counts := inj.Counts()
	checks := []struct {
		metric string
		want   int64
	}{
		{"train.crc_detected", report.Robust.CRCFailures},
		{"train.ssdc_fallbacks", report.Robust.SSDCFallbacks},
		{"train.injected.encode_failures", report.Robust.EncodeFailures},
		{"train.injected.decode_failures", report.Robust.DecodeFailures},
		{"train.injected.alloc_failures", report.Robust.AllocFailures},
		{"train.retries", int64(report.Retries)},
		{"train.recovered_steps", int64(report.RecoveredSteps)},
		{"train.steps", int64(report.Steps + report.Retries)},
		{"faults.injected.bit-flip", int64(counts[faults.BitFlip])},
		{"faults.injected.encode-fail", int64(counts[faults.EncodeFail])},
		{"faults.injected.decode-fail", int64(counts[faults.DecodeFail])},
		// Sync-path failures all surface inside stash preparation, so only
		// fully successful steps record a memory sample.
		{"stash.samples", int64(report.Steps)},
	}
	for _, c := range checks {
		if got := v[c.metric]; got != c.want {
			t.Errorf("%s = %d, want %d", c.metric, got, c.want)
		}
	}
	if report.Robust.CRCFailures == 0 || report.Retries == 0 {
		t.Fatal("injector fired nothing; the cross-check proved nothing")
	}
	// Every CRC detection came from a single-bit flip of a chunked stash,
	// so every one must have been localized to a chunk.
	if got := v["train.crc.chunk_located"]; got != report.Robust.CRCFailures {
		t.Errorf("chunk-located %d of %d CRC detections", got, report.Robust.CRCFailures)
	}

	// The periodic dump fired at steps 20 and 40.
	if got := strings.Count(periodic.String(), "# gist telemetry snapshot"); got != 2 {
		t.Errorf("periodic snapshots %d, want 2", got)
	}

	// The final snapshot derives per-technique ratios from the samples:
	// Binarize holds 1 bit per FP32 element (32x), DPR-FP16 2x.
	var sb strings.Builder
	if err := sink.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	snap := sb.String()
	for _, want := range []string{"ratio Binarize 32.00", "ratio DPR 2.00", "mem step"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

// TestTelemetryOverlapCounters pins the async-decode accounting: with the
// chunk-parallel codec and no injector, backward prefetches decode futures
// and every consumer classifies as overlap hit (future resolved in time) or
// miss (had to wait) — and the split must cover every future consumed.
func TestTelemetryOverlapCounters(t *testing.T) {
	encoding.SetDefaultCodec(encoding.Codec{Pool: parallel.NewPool(4), ChunkElems: 768})
	t.Cleanup(func() { encoding.SetDefaultCodec(encoding.Codec{}) })

	g := smallNet(4)
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	sink := telemetry.New()
	e := NewExecutor(g, Options{Seed: 3, Encodings: a, Telemetry: sink})
	d := NewDataset(4, 2, 8, 0.3, 7)
	x, labels := d.Batch(4)
	const steps = 5
	for i := 0; i < steps; i++ {
		e.Step(x, labels, 0.01)
	}

	v := sink.Values()
	if v["train.steps"] != steps {
		t.Fatalf("train.steps %d, want %d", v["train.steps"], steps)
	}
	if v["train.overlap.hits"]+v["train.overlap.misses"] == 0 {
		t.Fatal("async decode ran with no overlap accounting")
	}
	if v["stash.samples"] != steps {
		t.Fatalf("stash.samples %d, want %d", v["stash.samples"], steps)
	}
	if v["mem.peak_held_bytes"] <= 0 || v["mem.peak_raw_bytes"] < v["mem.peak_held_bytes"] {
		t.Fatalf("peaks raw %d held %d", v["mem.peak_raw_bytes"], v["mem.peak_held_bytes"])
	}
	if sink.Histogram("train.step.ns").Count() != steps {
		t.Fatalf("step latency observations %d", sink.Histogram("train.step.ns").Count())
	}
}

// TestExecutorCodecOwnsAllCodecWork pins codec isolation: an executor built
// with its own Options.Codec does every codec operation — encode, the
// chunked CRC seal, verify, decode — through it. Here that codec is serial,
// so any helper goroutine a pool recruits means chunk work ran on the
// process-wide default codec's 4-worker pool instead, and the default
// codec's sink must see nothing at all.
func TestExecutorCodecOwnsAllCodecWork(t *testing.T) {
	global, job, pools := telemetry.New(), telemetry.New(), telemetry.New()
	withCodec(t, encoding.Codec{Pool: parallel.NewPool(4), ChunkElems: 768, Tel: global})
	parallel.SetTelemetry(pools)
	t.Cleanup(func() { parallel.SetTelemetry(nil) })

	g := smallNet(4) // 1024-element maps: two 768-element chunks each
	a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
	e := NewExecutor(g, Options{
		Seed: 3, Encodings: a, Integrity: true,
		Codec: &encoding.Codec{Pool: parallel.NewPool(1), ChunkElems: 768, Tel: job},
	})
	x, labels := NewDataset(4, 2, 8, 0.3, 7).Batch(4)
	e.Step(x, labels, 0.01)

	if job.Values()["codec.chunks"] == 0 {
		t.Fatal("the executor's codec recorded no chunk work")
	}
	if n := pools.Values()["pool.helpers_spawned"]; n != 0 {
		t.Errorf("%d helper goroutines recruited: chunk work ran outside the executor's serial codec", n)
	}
	for name, v := range global.Values() {
		if strings.HasPrefix(name, "codec.") && v != 0 {
			t.Errorf("default codec's sink saw %s = %d", name, v)
		}
	}
}

// TestTelemetryNilSinkUntouched guards the zero-overhead default: an
// uninstrumented executor must never create a sink or record anything.
func TestTelemetryNilSinkUntouched(t *testing.T) {
	g := smallNet(4)
	e := NewExecutor(g, Options{Seed: 1})
	d := NewDataset(4, 2, 8, 0.3, 2)
	x, labels := d.Batch(4)
	e.Step(x, labels, 0.01)
	if e.Telemetry() != nil {
		t.Fatal("uninstrumented executor grew a sink")
	}
}
