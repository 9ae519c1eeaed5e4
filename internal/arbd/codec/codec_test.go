package codec

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// sampleFrames covers every type, with and without the routing
// header, plus edge values (zero and maximal integers, empty fields).
func sampleFrames() []Frame {
	return []Frame{
		{Type: TAcquire, Corr: 1, Agent: 7, TimeoutNS: 2_000_000_000, TTLNS: 5_000_000_000,
			Resource: []byte("bus")},
		{Type: TAcquire, Corr: ^uint64(0), Agent: ^uint32(0), TimeoutNS: -1, TTLNS: -1,
			Resource: []byte("")},
		{Type: TGrant, Corr: 42, Agent: 3, TTLNS: 30_000_000_000,
			Resource: []byte("bus"), Token: []byte("bus-3-17")},
		{Type: TRelease, Corr: 43, Resource: []byte("disk"), Token: []byte("disk-1-2")},
		{Type: TReleased, Corr: 43, Resource: []byte("disk")},
		{Type: TError, Corr: 44, Code: 503, Msg: []byte("arbd: queue full")},
		{Type: TError, Corr: 0, Code: 0, Msg: nil},
		{Type: TGrant, Corr: 9, Agent: 1, Flags: FlagRouted, Route: []byte{0xde, 0xad},
			Resource: []byte("bus"), Token: []byte("t")},
	}
}

// canon normalizes a frame for comparison: nil and empty byte fields
// are the same wire bytes.
func canon(f Frame) Frame {
	norm := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	f.Resource = norm(f.Resource)
	f.Token = norm(f.Token)
	f.Msg = norm(f.Msg)
	f.Route = norm(f.Route)
	return f
}

func framesEqual(a, b Frame) bool {
	a, b = canon(a), canon(b)
	return a.Type == b.Type && a.Flags == b.Flags && a.Corr == b.Corr &&
		a.Agent == b.Agent && a.TimeoutNS == b.TimeoutNS && a.TTLNS == b.TTLNS &&
		a.Code == b.Code &&
		bytes.Equal(a.Resource, b.Resource) && bytes.Equal(a.Token, b.Token) &&
		bytes.Equal(a.Msg, b.Msg) && bytes.Equal(a.Route, b.Route)
}

func TestRoundTrip(t *testing.T) {
	for _, in := range sampleFrames() {
		buf, err := Append(nil, &in)
		if err != nil {
			t.Fatalf("Append(%v): %v", in.Type, err)
		}
		var out Frame
		n, err := Decode(buf, &out)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in.Type, err)
		}
		if n != len(buf) {
			t.Errorf("%v: Decode consumed %d of %d bytes", in.Type, n, len(buf))
		}
		if !framesEqual(in, out) {
			t.Errorf("%v round trip:\n in  %+v\n out %+v", in.Type, in, out)
		}
	}
}

// TestStreamRoundTrip pushes every sample frame through one
// Writer/Reader pair back to back, the way a connection does.
func TestStreamRoundTrip(t *testing.T) {
	frames := sampleFrames()
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for i := range frames {
		if err := w.WriteFrame(&frames[i]); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	r := NewReader(&wire)
	var f Frame
	for i := range frames {
		if err := r.Next(&f); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !framesEqual(frames[i], f) {
			t.Errorf("frame %d:\n in  %+v\n out %+v", i, frames[i], f)
		}
	}
	if err := r.Next(&f); err != io.EOF {
		t.Errorf("Next past end = %v, want io.EOF", err)
	}
}

// TestDecodeErrors pins the error taxonomy for malformed input.
func TestDecodeErrors(t *testing.T) {
	good, err := Append(nil, &Frame{Type: TAcquire, Corr: 1, Agent: 2, Resource: []byte("bus")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short length", good[:3], ErrShort},
		{"mid-frame", good[:len(good)-1], ErrShort},
		{"payload under header", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, HeaderLen-1) }), ErrMalformed},
		{"payload over cap", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, MaxPayload+1) }), ErrTooLong},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 }), ErrVersion},
		{"unknown type", corrupt(func(b []byte) { b[5] = 200 }), ErrType},
		{"field length past body", corrupt(func(b []byte) {
			// The resource length field sits after the 20-byte acquire
			// integers; point it past the end of the body.
			binary.BigEndian.PutUint16(b[4+HeaderLen+20:], 9999)
		}), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f Frame
			if _, err := Decode(tc.buf, &f); err != tc.want {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
		})
	}

	// Trailing bytes after a well-formed body are malformed, not
	// silently ignored.
	long := append([]byte(nil), good...)
	long = append(long, 0xFF)
	binary.BigEndian.PutUint32(long, uint32(len(long)-4))
	var f Frame
	if _, err := Decode(long, &f); err != ErrMalformed {
		t.Errorf("trailing bytes: Decode = %v, want ErrMalformed", err)
	}
}

func TestAppendErrors(t *testing.T) {
	if _, err := Append(nil, &Frame{Type: TInvalid}); err != ErrType {
		t.Errorf("Append(TInvalid) = %v, want ErrType", err)
	}
	huge := make([]byte, MaxPayload)
	if _, err := Append(nil, &Frame{Type: TRelease, Resource: huge, Token: []byte("t")}); err != ErrTooLong {
		t.Errorf("oversized field: Append = %v, want ErrTooLong", err)
	}
}

// TestReaderRejectsHostileLength pins that a hostile length prefix
// cannot balloon the read buffer: the reader fails before reading the
// body.
func TestReaderRejectsHostileLength(t *testing.T) {
	var wire bytes.Buffer
	binary.Write(&wire, binary.BigEndian, uint32(1<<30))
	r := NewReader(&wire)
	var f Frame
	if err := r.Next(&f); err != ErrTooLong {
		t.Errorf("Next = %v, want ErrTooLong", err)
	}
}

// TestReaderErrorLeavesNoStaleFrame pins what a failed Next leaves in
// its frame after a good frame decoded into it: the bad frame's own
// header fields if they decoded, else nothing, never the good frame's.
func TestReaderErrorLeavesNoStaleFrame(t *testing.T) {
	good, err := Append(nil, &Frame{Type: TAcquire, Corr: 5, Agent: 2, Resource: []byte("bus")})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Append(nil, &Frame{Type: TRelease, Corr: 9, Resource: []byte("bus"), Token: []byte("t")})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), bad...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
		corr uint64
	}{
		{"short length", bad[:3], io.ErrUnexpectedEOF, 0},
		{"mid-frame", bad[:len(bad)-1], io.ErrUnexpectedEOF, 0},
		{"payload under header", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, HeaderLen-1) }), ErrMalformed, 0},
		{"payload over cap", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, MaxPayload+1) }), ErrTooLong, 0},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 }), ErrVersion, 0},
		{"unknown type", corrupt(func(b []byte) { b[5] = 200 }), ErrType, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(append(append([]byte(nil), good...), tc.buf...)))
			var f Frame
			if err := r.Next(&f); err != nil || f.Corr != 5 {
				t.Fatalf("good frame: Next = %v, Corr %d", err, f.Corr)
			}
			if err := r.Next(&f); err != tc.want {
				t.Fatalf("Next = %v, want %v", err, tc.want)
			}
			if f.Corr != tc.corr || f.Agent != 0 || f.Resource != nil {
				t.Errorf("after the error: %+v, want Corr %d and no field of the good frame", f, tc.corr)
			}
		})
	}
}

// TestEncodeDecodeZeroAlloc pins the fast path's allocation-free
// contract (the reason the codec exists): encoding into a warm buffer
// and decoding in place are both 0 allocs/op, and so are the stream
// Reader and Writer after their buffers warm up. arblint's
// determinism scope covers this package; this test covers its other
// half of the zero-alloc wire-path invariant.
func TestEncodeDecodeZeroAlloc(t *testing.T) {
	in := Frame{Type: TAcquire, Corr: 7, Agent: 3, TimeoutNS: 1e9, TTLNS: 5e9,
		Resource: []byte("bus")}
	buf := make([]byte, 0, MaxFrame)
	if allocs := testing.AllocsPerRun(100, func() {
		b, err := Append(buf[:0], &in)
		if err != nil || len(b) == 0 {
			t.Fatal("append failed")
		}
	}); allocs != 0 {
		t.Errorf("Append allocates %.1f times per frame, want 0", allocs)
	}

	wire, err := Append(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out Frame
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(wire, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decode allocates %.1f times per frame, want 0", allocs)
	}

	// Stream pair over a pre-grown pipe buffer.
	var conn bytes.Buffer
	w, r := NewWriter(&conn), NewReader(&conn)
	if err := w.WriteFrame(&in); err != nil { // warm both buffers
		t.Fatal(err)
	}
	if err := r.Next(&out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(&in); err != nil {
			t.Fatal(err)
		}
		if err := r.Next(&out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Writer+Reader allocate %.1f times per frame, want 0", allocs)
	}
}
