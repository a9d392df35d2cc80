package artifact

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func mustWrite(t *testing.T, kind string, shape []int, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, kind, shape, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("the quantized network bytes")
	raw := mustWrite(t, "qnet-int8", []int{40, 9}, payload)
	h, got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Kind != "qnet-int8" {
		t.Fatalf("header %+v", h)
	}
	if len(h.Shape) != 2 || h.Shape[0] != 40 || h.Shape[1] != 9 {
		t.Fatalf("shape %v", h.Shape)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
	if err := CheckKind(h, "qnet-int8"); err != nil {
		t.Fatal(err)
	}
	if err := CheckKind(h, "nn-float64"); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestEmptyShapeAndPayload(t *testing.T) {
	raw := mustWrite(t, "k", nil, nil)
	h, got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Shape) != 0 || len(got) != 0 {
		t.Fatalf("h=%+v payload=%v", h, got)
	}
}

// Every possible truncation of a valid envelope must be rejected.
func TestEveryTruncationRejected(t *testing.T) {
	raw := mustWrite(t, "qnet-int8", []int{40, 9}, []byte("payload bytes here"))
	for n := 0; n < len(raw); n++ {
		if _, _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(raw))
		}
	}
}

// Every possible single bit flip must be rejected: either a structural
// bounds error or the digest mismatch catches it.
func TestEveryBitFlipRejected(t *testing.T) {
	raw := mustWrite(t, "qnet-int8", []int{40, 9}, []byte("payload bytes here"))
	for i := 0; i < len(raw); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if _, _, err := Read(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	raw := mustWrite(t, "k", nil, []byte("p"))
	raw = append(raw, 0xFF)
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "", nil, nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := Write(&buf, strings.Repeat("k", MaxKindLen+1), nil, nil); err == nil {
		t.Fatal("oversized kind accepted")
	}
	if err := Write(&buf, "k", []int{0}, nil); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if err := Write(&buf, "k", []int{-3}, nil); err == nil {
		t.Fatal("negative dimension accepted")
	}
	if err := Write(&buf, "k", make([]int, MaxShapeDims+1), nil); err == nil {
		t.Fatal("oversized rank accepted")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not a model artifact at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
	raw := mustWrite(t, "k", nil, nil)
	// Patch the version to an unsupported value; the digest check would
	// also fire, but the version error must come first so the message
	// is diagnosable.
	mut := append([]byte(nil), raw...)
	mut[4] = 99
	_, _, err := Read(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version error not diagnosable: %v", err)
	}
}

// A hostile payload-length field must not drive a huge allocation: the
// declared length is bounds-checked against the bytes actually present.
func TestHostileLengthFields(t *testing.T) {
	raw := mustWrite(t, "k", nil, []byte("p"))
	mut := append([]byte(nil), raw...)
	// payload length lives after magic(4)+version(4)+kindLen(2)+kind(1)+rank(2).
	off := 4 + 4 + 2 + 1 + 2
	for _, v := range []byte{0xFF, 0x7F} {
		for i := 0; i < 4; i++ {
			mut[off+i] = v
		}
		if _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatal("hostile payload length accepted")
		}
	}
}

// lenReader reports a length it does not hold, so a MaxBytes refusal
// can only come from Len, before any buffer is sized to it.
type lenReader struct{ n int }

func (r lenReader) Len() int               { return r.n }
func (lenReader) Read([]byte) (int, error) { return 0, io.EOF }

func TestReadRefusesOversizedLen(t *testing.T) {
	if _, _, err := Read(lenReader{MaxBytes + 1}); err == nil || !strings.Contains(err.Error(), "MaxBytes") {
		t.Fatalf("reader reporting %d bytes: err %v, want a MaxBytes refusal", MaxBytes+1, err)
	}
}

// understated is a bytes.Reader whose Len reports a single byte.
type understated struct{ *bytes.Reader }

func (understated) Len() int { return 1 }

// TestReadUnderstatedLen: a reader whose Len understates its data is
// still read to EOF, so the envelope verifies.
func TestReadUnderstatedLen(t *testing.T) {
	raw := mustWrite(t, "qnet-int8", []int{4}, []byte("payload"))
	if _, got, err := Read(understated{bytes.NewReader(raw)}); err != nil || string(got) != "payload" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}
