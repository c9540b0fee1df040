package train

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
)

// TestTelemetryCrossChecksReportAndInjector is the reconciliation wall: one
// fault-injected recoverable run, after which the sink (and its Prometheus
// exposition), the RecoveryReport and the injector's own event log must
// agree counter for counter. The executor mirrors every RobustnessStats increment and the
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
	e := NewExecutor(g, Options{Seed: 9, Encodings: a, Faults: inj, Telemetry: sink,
		Codec: &encoding.Codec{Tel: sink}})
	if e.Telemetry() != sink {
		t.Fatal("executor dropped the sink")
	}
	d := NewDataset(4, 2, 8, 0.3, 13)

	_, report, err := RunRecoverable(context.Background(), e, d,
		RunConfig{Minibatch: 4, Steps: 40, LR: 0.05, ProbeEvery: 10},
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
		{"train.ssdc_fallbacks", report.Robust.SparseFallbacks},
		{"train.injected.encode_failures", report.Robust.EncodeFailures},
		{"train.injected.decode_failures", report.Robust.DecodeFailures},
		{"train.injected.alloc_failures", report.Robust.AllocFailures},
		{"train.retries", int64(report.Retries)},
		{"train.recovered_steps", int64(report.RecoveredSteps)},
		{"train.steps", int64(report.Steps + report.Retries)},
		{"faults.injected.bit-flip", int64(counts[faults.BitFlip])},
		{"faults.injected.encode-fail", int64(counts[faults.EncodeFail])},
		{"faults.injected.decode-fail", int64(counts[faults.DecodeFail])},
		// Every attempt whose stash set completed records a memory sample:
		// the successful steps and the attempts that failed mid-backward.
		{"stash.samples", int64(report.Steps) + v["train.grad_zeroing"]},
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

	if last, ok := sink.LastMemSample(); !ok || len(last.ByTech) == 0 {
		t.Errorf("last memory sample = (%+v, %v), want a per-technique split", last, ok)
	}

	// The exposition carries the same facts: per-technique ratios from the
	// cumulative stash bytes — Binarize holds 1 bit per FP32 element (32x),
	// DPR-FP16 2x — and every injected bit flip caught once by the executor
	// and once by the codec.
	reg := promexport.NewRegistry()
	reg.Register(sink)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promexport.Parse(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	value := func(family string, kv ...string) float64 {
		t.Helper()
		f := promexport.Find(fams, family)
		if f == nil {
			t.Fatalf("exposition has no %s", family)
		}
		s, ok := f.Get(kv...)
		if !ok {
			t.Fatalf("exposition has no %s%v", family, kv)
		}
		return s.Value
	}
	for tech, want := range map[string]float64{"Binarize": 32, "DPR": 2} {
		raw := value("gist_stash_raw_bytes_total", "technique", tech)
		held := value("gist_stash_held_bytes_total", "technique", tech)
		if ratio := raw / held; math.Abs(ratio-want) >= 0.005 {
			t.Errorf("%s ratio %.3f (raw %v / held %v), want %v", tech, ratio, raw, held, want)
		}
	}
	flips := value("gist_faults_injected_total", "kind", "bit-flip")
	crc := value("gist_train_crc_detected_total")
	codec := value("gist_codec_crc_failures_total")
	if flips != crc || crc != codec {
		t.Errorf("bit flips %v, train CRC detections %v, codec CRC failures %v: want all equal", flips, crc, codec)
	}
}

// TestTelemetryOverlapCounters pins the async-decode accounting: with the
// chunk-parallel codec and no injector, backward's decode window starts the
// futures and every consumer classifies as overlap hit (future resolved in
// time) or miss (had to wait) — and the split must cover every future
// consumed: one per assigned stash per step, each read once it is decoded.
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
	consumed := int64(steps * len(a.ByNode))
	if consumed == 0 {
		t.Fatal("the analysis assigned no stash; no future ran")
	}
	if hits, misses := v["train.overlap.hits"], v["train.overlap.misses"]; hits+misses != consumed {
		t.Fatalf("overlap hits %d + misses %d, want the %d futures consumed", hits, misses, consumed)
	}
	if v["stash.samples"] != steps {
		t.Fatalf("stash.samples %d, want %d", v["stash.samples"], steps)
	}
	if v["mem.peak_held_bytes"] <= 0 || v["mem.peak_raw_bytes"] < v["mem.peak_held_bytes"] {
		t.Fatalf("peaks raw %d held %d", v["mem.peak_raw_bytes"], v["mem.peak_held_bytes"])
	}
	if n := sink.Histogram("train.step.ns").Snapshot().Count; n != steps {
		t.Fatalf("step latency observations %d", n)
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
