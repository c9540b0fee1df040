package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*) used
// for weight initialization and synthetic data. Training experiments must be
// reproducible run-to-run, so all randomness in the repository flows through
// explicitly seeded RNG values rather than math/rand global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. A zero seed is
// remapped to a fixed non-zero constant because xorshift has an all-zero
// fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// State returns the generator's internal state, for snapshotting.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously returned by State, rewinding the
// stream exactly — the training recovery loop uses this to replay a failed
// step bit-identically.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}

// Mix derives a seed from (seed, a, b) with the splitmix64 finalizer, so
// randomness keyed by position — a shard of a step, one die of one stash —
// is the same whatever ran before it, on whichever goroutine.
func Mix(seed, a, b uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(a+1) + 0x632be59bd9b4e019*(b+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// FillUniform fills t with uniform values in [lo, hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float32) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*r.Float32()
	}
}

// FillNormal fills t with normal values of the given mean and stddev.
func (t *Tensor) FillNormal(r *RNG, mean, stddev float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + float64(stddev*r.NormFloat64()))
	}
}

// FillXavier applies Glorot/Xavier uniform initialization for a layer with
// the given fan-in and fan-out, the standard initialization for the CNNs in
// the paper's application suite.
func (t *Tensor) FillXavier(r *RNG, fanIn, fanOut int) {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	t.FillUniform(r, -limit, limit)
}

// FillHe applies He-normal initialization (stddev = sqrt(2/fanIn)), suited
// to ReLU networks such as VGG and ResNet.
func (t *Tensor) FillHe(r *RNG, fanIn int) {
	t.FillNormal(r, 0, math.Sqrt(2/float64(fanIn)))
}
