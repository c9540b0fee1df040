package encoding

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"gist/internal/floatenc"
	"gist/internal/tensor"
)

// Golden wire-format fixtures for sealed EncodedStash blobs. The frozen
// hex pins the "GST4" marshaled layout end to end — header fields, masks,
// the packed value and DPR word streams, chunk-CRC trailer and the
// rolled-up checksum — so a change anywhere in encode, seal or marshal
// that moves a byte fails here by name instead of surfacing as a
// checkpoint incompatibility. Regenerate with `go run ./internal/goldengen`
// only for an intentional wire-format break.

// goldenStashInput rebuilds the fixture feature map: seeded noise with
// negatives clamped to zero (48 of 96 elements zero), the ReLU-shaped
// distribution the sparse containers exist for.
func goldenStashInput() *tensor.Tensor {
	t := tensor.New(2, 3, 4, 4)
	rng := tensor.NewRNG(12345)
	for i := range t.Data {
		v := rng.Float32()*2 - 1
		if v < 0 {
			v = 0
		}
		t.Data[i] = v
	}
	return t
}

const (
	// An SSDC stash (technique word 2, FP16), frozen when the runtime
	// still held narrow CSR. SSDC is a planning model now: the blob must
	// fail with ErrNoTechnique.
	goldenSSDCBlobHex = "4753543402000000010000000080010004000000020000000300000004000000040000000100000060000000000100003000000000000000300000000001030607080a11121415161718191a1d2324262728292c2d2e3132333536383a3c464a4c4d4f5051535456575a5c5d16320d388e37ff3b102c06384238073aba3137390e38ec3574366e39b8365e3a8034ef3b3a36103b923b4a3aba370c3bbe345638443a142e582afc387d33e6347232123b3b3876391130433a71387138a03046383527db36d63afd3bc23bb838370d9b0201000000e2dbbef3"

	goldenDPRChecksum = 0x7fa60a6d
	goldenDPRBlobHex  = "4753543403000000010000000080010004000000020000000300000004000000040000000200000060000000c8800300de000000f0c0020e00840300000000000000800ec700500ee060a30de66c930e0000200d000000000000000fd900c00eeea4f30d0000c00ed384030000a4830ba900400ece00400d00280300ec0000000000000000000000008403000000600e0000930e0088230ec200100e9d00b00deb000000f000f00ee30000006d0aa67f010000001b0471fc"

	// The ZVC fixtures pin the payload section of the technique added after
	// the paper's three, in the same container.
	goldenZVCChecksum = 0x0ca46b2b
	goldenZVCBlobHex  = "475354340400000001000000008001000400000002000000030000000400000004000000000000006000000030000000cb05f627d8736e1540b4db3400000000d8bf423e749d013fccbdf13e16de7f3fe00c823dacbb003f9e36083f1eeb403fc846373e46dd263f88c5013f3082bd3ea48fce3e60cd2d3f4c08d73e82c44b3f4407903ec6ef7d3f2435c73e04f9613faa41723f0840493f7c3cf73ee08e613f84cc973e24cf0a3f9478483fd085c23da0f94a3da6741f3f08a26f3ed4cc9c3e78414e3eac38623ff46d073f1ac32e3f6026023e5456483f56130e3f1c2c0e3ff8fc133ec2b4083fc09fe63c905cdb3e88b85a3f8ea07f3fda34783f0cf4163f2b6ba40c01000000ec2826ae"

	// ZVC at FP16 pins the packed value array: two values per word.
	goldenZVC16Checksum = 0x16a6de7c
	goldenZVC16BlobHex  = "475354340400000001000000008001000400000002000000030000000400000004000000010000006000000030000000cb05f627d8736e1540b4db340000000016320d388e37ff3b102c06384238073aba3137390e38ec3574366e39b8365e3a8034ef3b3a36103b923b4a3aba370c3bbe345638443a142e582afc387d33e6347232123b3b3876391130433a71387138a03046383527db36d63afd3bc23bb8387cdea61601000000c15b7b0a"

	// An Entropy stash (technique word 5, FP16, two chunks), frozen when
	// the repo still had that technique. It now names no technique: the
	// unmarshaller must reject it with ErrNoTechnique.
	goldenEntropyBlobHex = "475354330500000001000000008001000400000002000000030000001000000010000000010000000006000001000000de070000de070000a0aabaaaabaaaa99a9998bb9aa8b8ab99989899888887778667756554544b9aaabaaaa99aa99aa9b9abaa99aaa9999ba9aa0a9a90a9baaa9bb990aabaa8aa9aaabaa999aaa9b999b9aa9bb8bab98a99aabaaa999baa90a9a9bab99ab999b9b9baa999a8aa9a999aa9aaaa9a8a99b089a9baba099998998b999aa09a9b9aa9b9802cf4801679f671023c09de0568098393949802f21c015b3b92800df1a809da2764fbcf3a027692805924012e5b42f00baf9bcd7da49a655a0015d2341402f5d808c5300daf4fc160016313ae77a53009fb60017b5000bba400b614002b0bf7eb9a7ca02649764e00a9e7005e5c309101bbe4a0ed2c9a67695402feb4387100ace0015de875ef023ffd5809b1880950d776f7170b32dfb8f1012e1ffa58028a811744db35c4dd8c402f05404f29c0323f228016b169a5f21802ffd3009e32805f658005251efe0016fa88099b502299de02805e152013f855f971f61d965cdd0c8271e170fae5a4db0a2017997e9ce00b1358026b1dcd3c06d03b0536d535d1b29802d6bc04c9d201340ed537db58057828027ad60077fb8009b07805cfa809c59bf52805de4a0269d30aec34b86701580600b98a0016726013939404cb25f5406d5b802f5d404fdf27633011f237432dc51c0c404eb5de93005f157dd2f38978096adb57ed96ce6e753cd7809e8c99da4037baa016dd6e5b34fe1ce023892fb30d6b810fbabc8880d3d404bacee91e015fdbd56eede027651b98811fcd804b27ef23a460132cba58696c004d4d5805fe22026517aa90029f1db22478f4366ba0401af0bdd5f402a2dcdcf00bcf5cd280dd3a553011a55e968008e9ac9002e23f3f2e7dc05575ec02de412f60470efa02736d88a1b4870aa8055b98805bd77b89769802953926d348015e67005dbc801775431d376ea036fe1cbc7c4601332a0463daeadb28e5a3806b34f3dfd22e620035b4402e7abf6b2772e00b1f4804c72e3a201675806f55402bd20056b3f1d3ac5e01691002d1b649352e48009d1bfe15d0d2d5d7592009b690048b76cf02b43001b6737bebe6a805ea4402d74770d6d440eec2f9d64d6cfd5c2d530f0d95100bde601b948809a970056c968ed4c40ecc36d25ef5bbd8809f2bc02f163dec3db4cebffa4fece2016c61327fa7005ea4404c226317a84c93fc97fc7101ad1802a99bb58fceb77601b949e01772e00a9ebaf6804738c01543bbe4e75bbb9b194bc47fd1280595938aa015f2bbbcafd652bb2011946f4eb40ac6365daeea0165eb002e5680056ac027df600b18ba07009c8400b3b0013ea8809918805f9e6a85c92dab025cfbfe08fc4d879bc36fc4cae00b23262697b6d93bf80d887e9aa7c3a4016e5b92ac00bac756a0058d600a992c9806d9bc04f95f748d15c9a0056cc016a2780dfca600a99006ccca037aaa0178ac0454a80599980af097c8a5a1857bbb74d743a36faaa3ae8805a35bacec5d0d7ce012be96fa2037f65f420027b94ac5404dea7a2a076e5284402d0a005af400af5100b04c017717da1001b82805734bc68805c9c00ac9b68d002d54786d9e8811670c84408dc5f70ec0170216f2f31200d8b4b24ccb00a8026ee65400aae4cad8005f335b49f71802a8a5ac9e0166de017ad4bf63ff3300da78d0a3e93808f65dba93fbb55aff970059c80055330057a9408cd365d7b84a7500ba087cc9865013e2500bb39402c0d002ba18760e00b17370d3de501bb9a5d5467c362c0234dbf9df4c80265e5e79b6d100b80d8a880de325e93985be5669d38b3009856013d3a2036fa94278095c9ab500ab1b5ee029d100ac5006ef977880178f0e34406c3c33b10137159e14002c1c006e5ab77ad693b749f3cefa57334e047990019ee00b60c016e5802aba8e0c002c1adf1002c12ebe4c0280523b6a8027fda3f7afe027929c47eb68d8a809f5d6e0a8d24ded100b30a02636876c94f0011cf01ad9d7a700989400e76716b56a9bafa1985033ce600ac5c027c6bbb7e45de8275adcb3c04d5d0b7501b977e25c027e4a2044af8b005ed3802d749887737100b10d6c9a64b49405500b2b3f84c045da8809a49002f39802c22805cab802b46dc3f73271133c80154bf153b1b43a94d3a009a28e89002f328809756c84fe99804ea5802b99402f81af525a50f1e38a8805b776f5374fccb011c69402caa8096a801672c3c7780dea4404fc70743959ba28805cf48047d9000bf4200da7aed53005c68009b2ad013695e027163ccc71af00b388014e6e0b005d3a805728027baa0175b3a9353b63a17d6b76013a8a202732f00b511fe35c01542009e5c7e1780db3a2016ddc016cec002fadb550c1d700dd12d9c8085f2400b693802d22651408b8a3ebc9c65ed1fbce831f46ce8fe5600bcf9804c1578059e4e8d36ae00af0d23584bd8d2013e79b272009bcb0c5bf00a0359b806a68611802ed638fbdd7c76e8016a25ff8a0166ab2de00467d3e86e12805dc4a05748d90600b979ae20017c337026dc4d9b757b4b0012de20171636f7cc83009e7741553acdfe3273ee00bab85aae51ae1402e71ae67005bf7805e84c017bec016216f0a017027d8c3ab854b005e52d3d101ade7d547a28805ddc002ca2f4e9779802fdcfe44004b670097676ba00267ff0805d342c5408e95350f011eff6140acc55005631c337b52f64dbb700dad86ca0026eaa70b5c0156281181500bbf6bcdfb468015b47e6951404e0b6893775ea9b16d1c6e8ebc3f448014f92ff1c4c402c435bc004cf3fed75330057baeaa40131b4aba2017c9100ac9808e0c76d56026e26e4e88058cabc0c3c3a60130d107bd812f201000000324b1a5c"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenStashMarshal re-encodes the fixture map and requires the
// sealed, marshaled result to be byte-identical to the frozen blob — the
// encode direction of wire compatibility. A retired technique (checksum 0)
// must fail both ways with ErrNoTechnique: its encode and its frozen blob.
func TestGoldenStashMarshal(t *testing.T) {
	var cdc Codec
	cases := []struct {
		name     string
		blobHex  string
		checksum uint32
		encode   func(*tensor.Tensor) (*EncodedStash, error)
	}{
		{"ssdc-fp16", goldenSSDCBlobHex, 0,
			func(x *tensor.Tensor) (*EncodedStash, error) {
				as := &Assignment{Tech: SSDC, Format: floatenc.FP16, NeedsDecode: true}
				return encodeFresh(cdc, as, x)
			}},
		{"dpr-fp10", goldenDPRBlobHex, goldenDPRChecksum,
			func(x *tensor.Tensor) (*EncodedStash, error) {
				return encodeFresh(cdc, &Assignment{Tech: DPR, Format: floatenc.FP10}, x)
			}},
		{"zvc-fp32", goldenZVCBlobHex, goldenZVCChecksum,
			func(x *tensor.Tensor) (*EncodedStash, error) {
				return encodeFresh(cdc, &Assignment{Tech: ZVC, Format: floatenc.FP32}, x)
			}},
		{"zvc-fp16", goldenZVC16BlobHex, goldenZVC16Checksum,
			func(x *tensor.Tensor) (*EncodedStash, error) {
				return encodeFresh(cdc, &Assignment{Tech: ZVC, Format: floatenc.FP16}, x)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := c.encode(goldenStashInput())
			if c.checksum == 0 {
				if !errors.Is(err, ErrNoTechnique) {
					t.Fatalf("encode of a retired technique: %v, want ErrNoTechnique", err)
				}
				if _, err := UnmarshalStash(mustHex(t, c.blobHex)); !errors.Is(err, ErrNoTechnique) {
					t.Fatalf("UnmarshalStash of the frozen blob: %v, want ErrNoTechnique", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cdc.Seal(e)
			if e.Checksum != c.checksum {
				t.Errorf("checksum %#08x, want %#08x", e.Checksum, c.checksum)
			}
			blob, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want := mustHex(t, c.blobHex)
			if !bytes.Equal(blob, want) {
				i := 0
				for i < len(blob) && i < len(want) && blob[i] == want[i] {
					i++
				}
				t.Fatalf("marshaled blob diverges from fixture at byte %d (len %d vs %d)",
					i, len(blob), len(want))
			}
		})
	}
}

// TestGoldenStashUnmarshal is the decode direction at FP16: the frozen
// SSDC blob must fail with ErrNoTechnique, and the same map held as ZVC
// must unmarshal, pass integrity verification, and decode to the fixture
// map's FP16-quantized values — the spots SSDC's blob decoded to.
func TestGoldenStashUnmarshal(t *testing.T) {
	var c Codec
	if _, err := UnmarshalStash(mustHex(t, goldenSSDCBlobHex)); !errors.Is(err, ErrNoTechnique) {
		t.Fatalf("UnmarshalStash of the frozen SSDC blob: %v, want ErrNoTechnique", err)
	}
	e, err := UnmarshalStash(mustHex(t, goldenZVC16BlobHex))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Sealed() {
		t.Fatal("unmarshaled stash lost its seal")
	}
	if err := c.Verify(e); err != nil {
		t.Fatalf("frozen blob fails integrity verification: %v", err)
	}
	dec, err := decodeFresh(c, e)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenStashInput()
	if len(dec.Data) != len(in.Data) {
		t.Fatalf("decoded %d elements, want %d", len(dec.Data), len(in.Data))
	}
	for i, v := range in.Data {
		want := floatenc.FP16.Quantize(v)
		if math.Float32bits(dec.Data[i]) != math.Float32bits(want) {
			t.Fatalf("element %d decodes to %g, want %g", i, dec.Data[i], want)
		}
	}

	// Known decoded spot values, frozen independently of Quantize.
	for _, spot := range []struct {
		idx  int
		bits uint32
	}{{0, 0x3e42c000}, {7, 0x3d820000}, {19, 0x00000000}, {95, 0x00000000}} {
		if got := math.Float32bits(dec.Data[spot.idx]); got != spot.bits {
			t.Errorf("element %d = %#08x, want %#08x", spot.idx, got, spot.bits)
		}
	}

	// A flipped payload bit must be caught by the seal.
	e2, err := UnmarshalStash(mustHex(t, goldenZVC16BlobHex))
	if err != nil {
		t.Fatal(err)
	}
	e2.FlipBit(e2.PayloadBits() / 2)
	if err := c.Verify(e2); err == nil {
		t.Fatal("corrupted frozen blob passed verification")
	}
}

// TestGoldenV2StashUnmarshal is the decode direction for the ZVC fixtures:
// the frozen blobs must carry the "GST4" magic, unmarshal, verify and
// decode to the fixture map exactly (bit-exact at FP32, the FP16
// quantization at FP16), and a flipped payload bit must break the seal.
// The entropy fixture was frozen under the "GST3" magic, whose checksums
// left the header words out: as it stands it must be rejected as corrupt,
// and with the current magic it names a technique the codec no longer has,
// so it must unmarshal to ErrNoTechnique — either way without a panic.
func TestGoldenV2StashUnmarshal(t *testing.T) {
	cases := []struct {
		name    string
		blobHex string
		want    func(float32) float32 // nil: the blob must be rejected
	}{
		{"zvc-fp32", goldenZVCBlobHex, func(v float32) float32 { return v }},
		{"zvc-fp16", goldenZVC16BlobHex, floatenc.FP16.Quantize},
		{"entropy-fp16", goldenEntropyBlobHex, nil},
	}
	var cdc Codec
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blob := mustHex(t, c.blobHex)
			magic := "GST4"
			if c.want == nil {
				magic = "GST3"
			}
			if len(blob) < 4 || string(blob[:4]) != magic {
				t.Fatalf("fixture magic %q, want %s", blob[:min(4, len(blob))], magic)
			}
			e, err := UnmarshalStash(blob)
			if c.want == nil {
				if !errors.Is(err, ErrCorruptStash) {
					t.Fatalf("UnmarshalStash of a GST3 blob = %v, want ErrCorruptStash", err)
				}
				copy(blob, stashMagic[:])
				if _, err := UnmarshalStash(blob); !errors.Is(err, ErrNoTechnique) {
					t.Fatalf("UnmarshalStash = %v, want ErrNoTechnique", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !e.Sealed() {
				t.Fatal("unmarshaled stash lost its seal")
			}
			if err := cdc.Verify(e); err != nil {
				t.Fatalf("frozen blob fails integrity verification: %v", err)
			}
			dec, err := decodeFresh(cdc, e)
			if err != nil {
				t.Fatal(err)
			}
			input := goldenStashInput()
			if len(dec.Data) != len(input.Data) {
				t.Fatalf("decoded %d elements, want %d", len(dec.Data), len(input.Data))
			}
			for i, v := range input.Data {
				want := c.want(v)
				if math.Float32bits(dec.Data[i]) != math.Float32bits(want) {
					t.Fatalf("element %d decodes to %g, want %g", i, dec.Data[i], want)
				}
			}
			e2, err := UnmarshalStash(blob)
			if err != nil {
				t.Fatal(err)
			}
			e2.FlipBit(e2.PayloadBits() / 2)
			if err := cdc.Verify(e2); err == nil {
				t.Fatal("corrupted frozen blob passed verification")
			}
		})
	}
}
