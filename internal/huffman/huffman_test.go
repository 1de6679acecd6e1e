package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qoz/internal/pool"
)

func roundTrip(t *testing.T, in []uint32) {
	t.Helper()
	enc := Encode(in)
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("length mismatch: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, out[i], in[i])
		}
	}
}

func TestEmpty(t *testing.T) { roundTrip(t, []uint32{}) }

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []uint32{42})
	roundTrip(t, []uint32{7, 7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []uint32{0, 1, 0, 0, 1, 1, 0})
}

func TestPeakedDistribution(t *testing.T) {
	// Mimics a quantization-bin stream: strongly peaked at the center.
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 20000)
	for i := range in {
		in[i] = uint32(32768 + int(rng.NormFloat64()*3))
	}
	enc := Encode(in)
	// Peaked 16-bit symbols must compress well below 2 bytes/symbol.
	if len(enc) > len(in) {
		t.Fatalf("no compression: %d bytes for %d symbols", len(enc), len(in))
	}
	roundTrip(t, in)
}

func TestWideAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := make([]uint32, 5000)
	for i := range in {
		in[i] = rng.Uint32() % 70000
	}
	roundTrip(t, in)
}

func TestSkewedFibonacciLike(t *testing.T) {
	// Exponentially skewed frequencies drive the tree deep and exercise
	// the depth-flattening path.
	var in []uint32
	n := 1
	for s := 0; s < 40; s++ {
		for i := 0; i < n; i++ {
			in = append(in, uint32(s))
		}
		if n < 1<<20 {
			n *= 2
		}
		if len(in) > 200000 {
			break
		}
	}
	roundTrip(t, in)
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xFF}, // truncated uvarint
		{5, 0}, // claims 5 symbols with empty alphabet
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	enc := Encode([]uint32{1, 2, 3, 4, 5, 1, 2, 3, 4, 5})
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		// A one-byte truncation can still decode if padding was unused;
		// chop harder.
		if _, err := Decode(enc[:len(enc)/2]); err == nil {
			t.Error("expected error for truncated payload")
		}
	}
}

func TestEstimateBitsMatchesEncodeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform := make([]uint32, 4096)
	peaked := make([]uint32, 4096)
	for i := range uniform {
		uniform[i] = rng.Uint32() % 256
		peaked[i] = uint32(128 + int(rng.NormFloat64()*2))
	}
	if EstimateBits(peaked) >= EstimateBits(uniform) {
		t.Fatalf("peaked stream estimated larger than uniform: %d >= %d",
			EstimateBits(peaked), EstimateBits(uniform))
	}
	if EstimateBits(nil) != 0 {
		t.Fatal("empty estimate should be 0")
	}
	if EstimateBits([]uint32{9, 9, 9}) != 0 {
		t.Fatal("single-symbol estimate should be 0")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		in := make([]uint32, n)
		spread := 1 + rng.Intn(1000)
		for i := range in {
			in[i] = uint32(rng.Intn(spread))
		}
		enc := Encode(in)
		out, err := Decode(enc)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

func BenchmarkEncodePeaked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 1<<16)
	for i := range in {
		in[i] = uint32(32768 + int(rng.NormFloat64()*4))
	}
	b.SetBytes(int64(len(in) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(in)
	}
}

func BenchmarkDecodePeaked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint32, 1<<16)
	for i := range in {
		in[i] = uint32(32768 + int(rng.NormFloat64()*4))
	}
	enc := Encode(in)
	b.SetBytes(int64(len(in) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutSlab(out)
	}
}
