package bufpool

import (
	"sync"
	"testing"

	"gist/internal/telemetry"
	"gist/internal/tensor"
)

func TestClassIndexRounding(t *testing.T) {
	cases := []struct{ n, class, cap int }{
		{1, 0, 64}, {63, 0, 64}, {64, 0, 64},
		{65, 1, 128}, {128, 1, 128},
		{129, 2, 256}, {1000, 4, 1024}, {1024, 4, 1024}, {1025, 5, 2048},
	}
	for _, c := range cases {
		if got := classIndex(c.n); got != c.class {
			t.Errorf("classIndex(%d) = %d, want %d", c.n, got, c.class)
		}
		if got := classElems(classIndex(c.n)); got != c.cap {
			t.Errorf("cap for n=%d: %d, want %d", c.n, got, c.cap)
		}
	}
}

func TestGetRecycleReuse(t *testing.T) {
	p := New()
	a := p.Get(4, 8) // 32 elems → class 0
	if got := a.Shape.NumElements(); got != 32 {
		t.Fatalf("len = %d, want 32", got)
	}
	for i := range a.Data {
		a.Data[i] = float32(i + 1)
	}
	p.Recycle(a)

	// Same class, different shape: must reuse the backing array and come
	// back zeroed.
	b := p.Get(50)
	if &b.Data[0] != &a.Data[:1][0] {
		t.Fatal("same-class Get after Recycle did not reuse the buffer")
	}
	if len(b.Data) != 50 {
		t.Fatalf("len = %d, want 50", len(b.Data))
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	if !b.Shape.Equal(tensor.Shape{50}) {
		t.Fatalf("shape = %v, want [50]", b.Shape)
	}

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Recycles != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 recycle", st)
	}
}

func TestDistinctClassesDoNotMix(t *testing.T) {
	p := New()
	small := p.Get(64)
	p.Recycle(small)
	big := p.Get(65) // class 1 — must not be served the class-0 buffer
	if len(big.Data) > 0 && len(small.Data) > 0 && &big.Data[0] == &small.Data[0] {
		t.Fatal("Get(65) served a class-0 buffer")
	}
}

func TestDoubleRecyclePanics(t *testing.T) {
	p := New()
	a := p.Get(10)
	p.Recycle(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double recycle did not panic")
		}
	}()
	p.Recycle(a)
}

func TestForeignRecyclePanics(t *testing.T) {
	p := New()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign recycle did not panic")
		}
	}()
	p.Recycle(tensor.New(10))
}

func TestRecycleSliceFindsBuffer(t *testing.T) {
	p := New()
	s := p.GetSlice(100)
	s[0] = 42
	p.RecycleSlice(s[:7]) // resliced views still resolve to their buffer
	if got := p.Stats().Recycles; got != 1 {
		t.Fatalf("recycles = %d, want 1", got)
	}
	s2 := p.GetSlice(100)
	if s2[0] != 0 {
		t.Fatal("reused slice not zeroed")
	}
}

func TestPrewarmHitsFirstGet(t *testing.T) {
	p := New()
	p.Prewarm([]int{100, 200, 100})
	base := p.Stats()
	_ = p.Get(90)  // class of 100
	_ = p.Get(150) // class of 200
	st := p.Stats()
	if st.Hits-base.Hits != 2 {
		t.Fatalf("prewarmed gets: %d hits, want 2", st.Hits-base.Hits)
	}
}

func TestTelemetryInstruments(t *testing.T) {
	p := New()
	sink := telemetry.New()
	p.SetTelemetry(sink)
	a := p.Get(100) // class cap 128: miss
	p.Recycle(a)
	b := p.Get(100) // hit
	vals := sink.Values()
	if vals["bufpool.c128.misses"] != 1 {
		t.Errorf("c128 misses = %d, want 1", vals["bufpool.c128.misses"])
	}
	if vals["bufpool.c128.hits"] != 1 {
		t.Errorf("c128 hits = %d, want 1", vals["bufpool.c128.hits"])
	}
	if vals["bufpool.c128.held_bytes"] != 0 {
		t.Errorf("held after re-Get = %d, want 0", vals["bufpool.c128.held_bytes"])
	}
	p.Recycle(b)
	if got := sink.Values()["bufpool.c128.held_bytes"]; got != 128*4 {
		t.Errorf("held after recycle = %d, want %d", got, 128*4)
	}
	if got := p.Stats().InUseBytes; got != 0 {
		t.Errorf("in-use after all recycled = %d, want 0", got)
	}
}

// TestLiveBytesCountRequestsNotCapacity pins the pool's planner-facing
// counter: LiveBytes is what callers asked for and still hold (not the class
// capacity InUseBytes charges), PeakLiveBytes its high-water mark, mirrored
// into one gauge when a sink is attached.
func TestLiveBytesCountRequestsNotCapacity(t *testing.T) {
	p := New()
	sink := telemetry.New()
	p.SetTelemetry(sink)
	a := p.Get(100)      // 400 B asked, 512 B class
	b := p.GetSlice(300) // 1200 B asked, 2048 B class
	if st := p.Stats(); st.LiveBytes != 1600 || st.PeakLiveBytes != 1600 || st.InUseBytes != 2560 {
		t.Fatalf("two buffers out: %+v, want live 1600, peak 1600, in use 2560", st)
	}
	p.Recycle(a)
	c := p.Get(10, 10) // the recycled buffer, 400 B asked again
	if st := p.Stats(); st.LiveBytes != 1600 || st.PeakLiveBytes != 1600 {
		t.Fatalf("after a same-class swap: %+v, want live and peak 1600", st)
	}
	p.RecycleSlice(b[:7]) // resliced by its holder: still 1200 B coming back
	p.Recycle(c)
	st := p.Stats()
	if st.LiveBytes != 0 || st.PeakLiveBytes != 1600 {
		t.Fatalf("all recycled: %+v, want live 0, peak 1600", st)
	}
	if got := sink.Values()["bufpool.peak_live_bytes"]; got != st.PeakLiveBytes {
		t.Fatalf("bufpool.peak_live_bytes gauge %d, Stats %d", got, st.PeakLiveBytes)
	}
}

// TestConcurrentHammer drives Get/Recycle from many goroutines; under
// -race this also exercises the poison fill/check paths.
func TestConcurrentHammer(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{30, 70, 130, 1000}
			held := make([]*tensor.Tensor, 0, 4)
			for i := 0; i < 200; i++ {
				n := sizes[(i+g)%len(sizes)]
				tt := p.Get(n)
				for j := range tt.Data {
					tt.Data[j] = float32(g)
				}
				held = append(held, tt)
				if len(held) == cap(held) {
					for _, h := range held {
						p.Recycle(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				p.Recycle(h)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.InUseBytes != 0 || st.LiveBytes != 0 {
		t.Fatalf("after hammer: in-use %d B, live %d B, want 0 and 0", st.InUseBytes, st.LiveBytes)
	}
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("gets = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() is not a singleton")
	}
}
