package encoding

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
)

// analysisFingerprint hashes everything Analyze decides for one graph, in
// node order: every Assignment field (the sparsity by its bits), the
// PoolMaps entry and the effective backward needs. In NeedsDecode's place
// it hashes the rule NeedsDecode followed when the hashes were captured,
// Tech != Binarize: decodeFingerprint pins the field itself. Where the
// length of the retired runtime fallback chain was hashed, it hashes a
// constant 0, the length every non-adaptive assignment had.
func analysisFingerprint(a *Analysis) uint64 {
	h := fnv.New64a()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	for _, n := range a.Graph.Nodes {
		buf = buf[:0]
		u64(uint64(n.ID))
		if as, ok := a.ByNode[n.ID]; ok {
			u64(uint64(as.Node.ID))
			u64(uint64(as.Tech))
			u64(uint64(as.Format))
			u64(math.Float64bits(as.Sparsity))
			u64(uint64(as.EncodedBytes))
			flag(as.Tech != Binarize)
			u64(0)
		} else {
			u64(math.MaxUint64)
		}
		if b, ok := a.PoolMaps[n.ID]; ok {
			u64(uint64(b))
		} else {
			u64(math.MaxUint64)
		}
		needs := a.EffectiveNeeds(n)
		flag(needs.X)
		flag(needs.Y)
		h.Write(buf)
	}
	return h.Sum64()
}

// decodeFingerprint hashes, in node order, the NeedsDecode of every node
// Analyze assigns a technique to.
func decodeFingerprint(a *Analysis) uint64 {
	h := fnv.New64a()
	for _, n := range a.Graph.Nodes {
		if as, ok := a.ByNode[n.ID]; ok {
			binary.Write(h, binary.LittleEndian, int64(n.ID))
			binary.Write(h, binary.LittleEndian, as.NeedsDecode)
		}
	}
	return h.Sum64()
}

// TestAnalyzeAssignmentsPinned pins Analyze's output — technique, format,
// sparsity, predicted bytes, pool maps and effective needs of every node —
// over the training nets and the paper's suite, for every configuration
// the repo analyzes with. The hashes were captured before the selection
// passes were folded into one walk; a refactor of Analyze must leave every
// one of them unchanged. The adaptive rows moved when an adaptive set came
// to resolve into the SSDC and ZVC flags (its argmin over predicted bytes
// and the fallback chain it recorded went): each now equals the row of
// the fixed configuration it resolves to, and "adaptive-fp16" reads the
// same as "adaptive-zvc-over-ssdc-fp16". The decode column
// pins NeedsDecode apart (decodeFingerprint): it was captured when an SSDC
// or ZVC stash read only by Conv, FC and its own ReLU stopped needing a
// decode (readAsStored), which left every analysis hash as it was, and
// re-captured when that rule took in DPR stashes, which left them too.
// When ZVC took SSDC's place in Lossless and LossyLossless, those rows
// moved to what "adaptive-fp32" and "adaptive-fp16" already read (ZVC in
// SSDC's place was the adaptive tier's rule), the paper's literal SSDC
// configurations kept the old hashes under "paper-*", and an SSDC-only set
// stopped turning SSDC on, so "adaptive-ssdc-only" now reads as
// "dpr-fp16". When BatchNorm joined the readers that read X as stored, the
// decode column of every row that packs a conv's output densely (lossy-*,
// paper-lossy-fp16, technique-binarize/-ssdc/-dpr/-zvc/-dpr-fp32, dpr-*,
// adaptive-fp16, adaptive-zvc-over-ssdc-fp16, adaptive-ssdc-only) moved:
// such a stash read by a BatchNorm stopped needing a decode. The rows that
// leave it unencoded kept theirs, and every analysis hash stayed.
func TestAnalyzeAssignmentsPinned(t *testing.T) {
	graphs := []*graph.Graph{
		networks.TinyCNN(8, 4),
		networks.TinyVGG(8, 4),
		networks.ResNetCIFAR(2, 20),
	}
	for _, s := range networks.Suite() {
		graphs = append(graphs, s.Build(2))
	}
	fp16 := LossyLossless(floatenc.FP16)
	withAdaptive := func(c Config, set ...Technique) Config {
		c.AdaptiveSet = set
		return c
	}
	// paper is the paper's literal configuration, Binarize + SSDC +
	// inplace at DPR format f, which the planner figures price.
	paper := func(f floatenc.Format) Config {
		return Config{Binarize: true, SSDC: true, DPR: f, Inplace: true}
	}
	cases := []struct {
		name         string
		cfg          Config
		want, decode uint64
	}{
		{"lossless", Lossless(), 0x9a6d8cc7f62d43f6, 0x844728cf6d23e4dc},
		{"lossy-fp16", fp16, 0x34825df37bd91c93, 0x837ae4ca4d236358},
		{"lossy-fp10", LossyLossless(floatenc.FP10), 0x739f4c58f0a36bab, 0x837ae4ca4d236358},
		{"lossy-fp8", LossyLossless(floatenc.FP8), 0x533e8b06d9257596, 0x837ae4ca4d236358},
		{"paper-lossless", paper(floatenc.FP32), 0x2373550e6ab749a5, 0xe11dd871317062eb},
		{"paper-lossy-fp16", paper(floatenc.FP16), 0x72c5dca2769e2d4e, 0x837ae4ca4d236358},
		{"technique-none", fp16.WithTechnique(None), 0x21fae37e6760e143, 0x80e235df8de89bcc},
		{"technique-binarize", fp16.WithTechnique(Binarize), 0x0844407b5764196d, 0x837ae4ca4d236358},
		{"technique-ssdc", fp16.WithTechnique(SSDC), 0xfad9d69c8bbef19c, 0x6a2bc4cabd70d112},
		{"technique-dpr", fp16.WithTechnique(DPR), 0x26913017de58f94e, 0x6a2bc4cabd70d112},
		{"technique-zvc", fp16.WithTechnique(ZVC), 0xbeeed543b8219ce9, 0x6a2bc4cabd70d112},
		{"technique-zvc-fp32", Lossless().WithTechnique(ZVC), 0x99966c8aed14354c, 0xecd29a2f7de98ef3},
		{"technique-dpr-fp32", Lossless().WithTechnique(DPR), 0x26913017de58f94e, 0x6a2bc4cabd70d112},
		{"dpr-fp16", Config{DPR: floatenc.FP16}, 0x26913017de58f94e, 0x6a2bc4cabd70d112},
		{"dpr-fp10", Config{DPR: floatenc.FP10}, 0x92acc55491eceb76, 0x6a2bc4cabd70d112},
		{"dpr-fp8", Config{DPR: floatenc.FP8}, 0xfbe5b256e007e561, 0x6a2bc4cabd70d112},
		{"ssdc-fc-conv-like", Config{SSDC: true, FCIsConvLike: true}, 0xad6972499560d4c7, 0x0c6cec3652a0f9ef},
		{"lossless-fc-conv-like-dense", Config{Binarize: true, SSDC: true, FCIsConvLike: true,
			Sparsity: func(*graph.Node) float64 { return 1 }}, 0x989c2231123ffc9d, 0xf38397aced102ede},
		{"adaptive-fp16", withAdaptive(fp16, AdaptiveAll()...), 0x34825df37bd91c93, 0x837ae4ca4d236358},
		{"adaptive-fp32", withAdaptive(Lossless(), AdaptiveAll()...), 0x9a6d8cc7f62d43f6, 0x844728cf6d23e4dc},
		{"adaptive-only", Config{AdaptiveSet: AdaptiveAll()}, 0x99966c8aed14354c, 0xecd29a2f7de98ef3},
		{"adaptive-zvc-over-ssdc", withAdaptive(Lossless(), ZVC), 0x9a6d8cc7f62d43f6, 0x844728cf6d23e4dc},
		{"adaptive-zvc-over-ssdc-fp16", withAdaptive(fp16, ZVC), 0x34825df37bd91c93, 0x837ae4ca4d236358},
		{"adaptive-ssdc-only", Config{ZVC: true, DPR: floatenc.FP16,
			AdaptiveSet: []Technique{SSDC}}, 0x26913017de58f94e, 0x6a2bc4cabd70d112},
	}
	for _, c := range cases {
		h, hd := fnv.New64a(), fnv.New64a()
		for _, g := range graphs {
			a := Analyze(g, c.cfg)
			binary.Write(h, binary.LittleEndian, analysisFingerprint(a))
			binary.Write(hd, binary.LittleEndian, decodeFingerprint(a))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: analysis fingerprint %#016x, want %#016x", c.name, got, c.want)
		}
		if got := hd.Sum64(); got != c.decode {
			t.Errorf("%s: decode fingerprint %#016x, want %#016x", c.name, got, c.decode)
		}
	}
}
