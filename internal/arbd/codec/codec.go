// Package codec is arbd's binary wire protocol: length-prefixed
// request/grant/release frames over persistent connections, the
// compact alternative to the daemon's JSON-over-HTTP surface. The
// paper's protocols resolve in a handful of wired-OR bus cycles and
// the bit-parallel kernel resolves a grant in tens of nanoseconds;
// this codec keeps the signalling path in the same spirit — a frame
// is a few dozen bytes, encode and decode are allocation-free, and
// one TCP connection multiplexes any number of logical agents through
// correlation IDs.
//
// Frame layout (all integers big-endian):
//
//	+--------+---------+------+-------+------+------------+
//	| length | version | type | flags | corr |    body    |
//	|   u32  |   u8    |  u8  |  u16  | u64  |  type-dep. |
//	+--------+---------+------+-------+------+------------+
//
// length counts every byte after the length field itself (version
// through body, so at least HeaderLen). corr is the caller-chosen
// correlation ID echoed verbatim on the response frame; it is what
// lets many in-flight acquires share one connection. flags bit 0
// (FlagRouted) reserves room for a clustering routing header: when
// set, the body is prefixed by a u16-length opaque route field that
// v1 endpoints carry through untouched — the seam a multi-shard
// forwarding layer will use without a version bump.
//
// Body layouts by type (variable fields are u16 length + bytes):
//
//	Acquire:  agent u32, timeout_ns i64, ttl_ns i64, resource
//	Grant:    agent u32, ttl_ns i64, resource, token
//	Release:  resource, token
//	Released: resource
//	Error:    code u16, message
//
// Error codes reuse the daemon's HTTP statuses (see docs/WIRE.md):
// 400 bad request, 404 unknown resource or lease, 408 deadline
// exceeded, 503 overload or shutdown.
//
// Decode aliases the input buffer for the variable-length fields
// (Resource, Token, Msg, Route): zero copies, zero allocations, valid
// until the buffer is reused. Callers that keep a field across frames
// must copy it. The package is inside arblint's determinism scope: no
// wall clock, no global randomness — a frame encodes the same bytes
// every time.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Type discriminates frames.
type Type uint8

// The frame types. Acquire and Release travel client→server; Grant,
// Released and Error travel server→client, echoing the request's
// correlation ID.
const (
	TInvalid  Type = 0
	TAcquire  Type = 1
	TGrant    Type = 2
	TRelease  Type = 3
	TReleased Type = 4
	TError    Type = 5
)

// String names the type for diagnostics.
//
//arblint:alloc Stringer for logs and tests, never on the frame path
func (t Type) String() string {
	switch t {
	case TAcquire:
		return "Acquire"
	case TGrant:
		return "Grant"
	case TRelease:
		return "Release"
	case TReleased:
		return "Released"
	case TError:
		return "Error"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Version is the only wire version this package speaks. Decoders
// reject other versions rather than guessing at layouts.
const Version = 1

// FlagRouted marks a frame whose body is prefixed by an opaque
// routing header (u16 length + bytes), reserved for the multi-shard
// forwarding layer. v1 endpoints decode it into Frame.Route and must
// echo it untouched when forwarding.
const FlagRouted uint16 = 1 << 0

// HeaderLen is the fixed post-length header: version, type, flags,
// correlation ID.
const HeaderLen = 1 + 1 + 2 + 8

// MaxPayload bounds the post-length payload a conforming endpoint
// will encode or accept: frames are control messages, not data
// transfers, and the bound keeps a malformed or hostile length prefix
// from ballooning a read buffer.
const MaxPayload = 4096

// MaxFrame is the largest whole frame on the wire.
const MaxFrame = 4 + MaxPayload

// The decode errors. They are predeclared so the fast path allocates
// nothing.
var (
	// ErrShort reports a buffer that ends mid-frame; stream readers
	// treat it as "need more bytes".
	ErrShort = errors.New("codec: truncated frame")
	// ErrVersion reports a frame from a different protocol version.
	ErrVersion = errors.New("codec: unsupported version")
	// ErrType reports an unknown frame type.
	ErrType = errors.New("codec: unknown frame type")
	// ErrTooLong reports a length prefix over MaxPayload, or an encode
	// whose variable fields would exceed it.
	ErrTooLong = errors.New("codec: frame exceeds MaxPayload")
	// ErrMalformed reports a body that does not parse under its type's
	// layout (bad field lengths, trailing bytes).
	ErrMalformed = errors.New("codec: malformed frame body")
)

// Frame is one decoded (or to-be-encoded) protocol message. Which
// fields are meaningful depends on Type; the rest are ignored by
// Append and zeroed by Decode. The byte-slice fields alias the decode
// buffer — see the package comment.
type Frame struct {
	Type  Type
	Flags uint16
	// Corr is the correlation ID: chosen by the requester, echoed by
	// the responder.
	Corr uint64
	// Agent is the arbitrating identity (Acquire, Grant).
	Agent uint32
	// TimeoutNS bounds the acquire's queue wait in nanoseconds
	// (Acquire; 0 means wait indefinitely).
	TimeoutNS int64
	// TTLNS is the lease lifetime in nanoseconds (Acquire: requested,
	// 0 for the resource default; Grant: granted).
	TTLNS int64
	// Code is the error status (Error): the daemon's HTTP-taxonomy
	// codes 400/404/408/503.
	Code uint16
	// Resource names the arbitrated resource (Acquire, Grant, Release,
	// Released).
	Resource []byte
	// Token identifies a lease (Grant, Release).
	Token []byte
	// Msg is the human-readable error text (Error).
	Msg []byte
	// Route is the opaque routing header present iff Flags&FlagRouted
	// is set, carried through by v1 endpoints.
	Route []byte
}

// Append encodes f onto dst and returns the extended slice. It is the
// allocation-free fast path: with sufficient capacity in dst it does
// not allocate. Oversized variable fields report ErrTooLong; an
// unencodable Type reports ErrType.
func Append(dst []byte, f *Frame) ([]byte, error) {
	payload := HeaderLen
	if f.Flags&FlagRouted != 0 {
		payload += 2 + len(f.Route)
	}
	switch f.Type {
	case TAcquire:
		payload += 4 + 8 + 8 + 2 + len(f.Resource)
	case TGrant:
		payload += 4 + 8 + 2 + len(f.Resource) + 2 + len(f.Token)
	case TRelease:
		payload += 2 + len(f.Resource) + 2 + len(f.Token)
	case TReleased:
		payload += 2 + len(f.Resource)
	case TError:
		payload += 2 + 2 + len(f.Msg)
	default:
		return dst, ErrType
	}
	if payload > MaxPayload ||
		len(f.Resource) > maxField || len(f.Token) > maxField ||
		len(f.Msg) > maxField || len(f.Route) > maxField {
		return dst, ErrTooLong
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, Version, byte(f.Type))
	dst = binary.BigEndian.AppendUint16(dst, f.Flags)
	dst = binary.BigEndian.AppendUint64(dst, f.Corr)
	if f.Flags&FlagRouted != 0 {
		dst = appendField(dst, f.Route)
	}
	switch f.Type {
	case TAcquire:
		dst = binary.BigEndian.AppendUint32(dst, f.Agent)
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.TimeoutNS))
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.TTLNS))
		dst = appendField(dst, f.Resource)
	case TGrant:
		dst = binary.BigEndian.AppendUint32(dst, f.Agent)
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.TTLNS))
		dst = appendField(dst, f.Resource)
		dst = appendField(dst, f.Token)
	case TRelease:
		dst = appendField(dst, f.Resource)
		dst = appendField(dst, f.Token)
	case TReleased:
		dst = appendField(dst, f.Resource)
	case TError:
		dst = binary.BigEndian.AppendUint16(dst, f.Code)
		dst = appendField(dst, f.Msg)
	}
	return dst, nil
}

// maxField bounds each variable-length field (u16 length on the wire,
// but MaxPayload governs first).
const maxField = MaxPayload - HeaderLen - 2

func appendField(dst, field []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(field)))
	return append(dst, field...)
}

// Decode parses the first frame in buf into f, returning the number
// of bytes consumed. f's byte-slice fields alias buf. A buffer ending
// mid-frame reports ErrShort with n == 0, as does an oversized or
// undersized length prefix (the stream cannot be trusted past it);
// payload-level errors consume the advertised frame so a caller could
// resynchronize, though in practice endpoints drop the connection on
// any decode error.
func Decode(buf []byte, f *Frame) (n int, err error) {
	if len(buf) < 4 {
		return 0, ErrShort
	}
	payload := int(binary.BigEndian.Uint32(buf))
	if payload > MaxPayload {
		return 0, ErrTooLong
	}
	if payload < HeaderLen {
		return 0, ErrMalformed
	}
	if len(buf) < 4+payload {
		return 0, ErrShort
	}
	n = 4 + payload
	if err := decodePayload(buf[4:n], f); err != nil {
		return n, err
	}
	return n, nil
}

// decodePayload parses one frame's post-length payload (version
// through body) into f.
func decodePayload(b []byte, f *Frame) error {
	*f = Frame{}
	if len(b) < HeaderLen {
		return ErrMalformed
	}
	if b[0] != Version {
		return ErrVersion
	}
	f.Type = Type(b[1])
	f.Flags = binary.BigEndian.Uint16(b[2:4])
	f.Corr = binary.BigEndian.Uint64(b[4:12])
	b = b[HeaderLen:]
	var ok bool
	if f.Flags&FlagRouted != 0 {
		if f.Route, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	}
	switch f.Type {
	case TAcquire:
		if len(b) < 4+8+8 {
			return ErrMalformed
		}
		f.Agent = binary.BigEndian.Uint32(b)
		f.TimeoutNS = int64(binary.BigEndian.Uint64(b[4:]))
		f.TTLNS = int64(binary.BigEndian.Uint64(b[12:]))
		b = b[20:]
		if f.Resource, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	case TGrant:
		if len(b) < 4+8 {
			return ErrMalformed
		}
		f.Agent = binary.BigEndian.Uint32(b)
		f.TTLNS = int64(binary.BigEndian.Uint64(b[4:]))
		b = b[12:]
		if f.Resource, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
		if f.Token, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	case TRelease:
		if f.Resource, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
		if f.Token, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	case TReleased:
		if f.Resource, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	case TError:
		if len(b) < 2 {
			return ErrMalformed
		}
		f.Code = binary.BigEndian.Uint16(b)
		b = b[2:]
		if f.Msg, b, ok = cutField(b); !ok {
			return ErrMalformed
		}
	default:
		return ErrType
	}
	if len(b) != 0 {
		return ErrMalformed
	}
	return nil
}

// cutField splits a u16-length-prefixed field off the front of b.
func cutField(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, b, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, b, false
	}
	return b[2 : 2+n], b[2+n:], true
}

// Reader decodes a frame stream from an io.Reader, reusing one
// internal buffer: after the first few frames, Next allocates
// nothing. The Frame fields it fills alias that buffer and are valid
// only until the next Next call.
type Reader struct {
	r   io.Reader
	buf []byte
	len [4]byte
}

// NewReader wraps r.
//
//arblint:alloc constructor: one Reader per connection, at setup
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads exactly one frame into f. io.EOF at a frame boundary is
// returned as io.EOF; a stream ending mid-frame is
// io.ErrUnexpectedEOF. On an error f holds only what decoded of the
// frame just read, never a field of an earlier frame, and nothing at
// all when its header did not decode.
func (r *Reader) Next(f *Frame) error {
	if _, err := io.ReadFull(r.r, r.len[:]); err != nil {
		*f = Frame{}
		return err
	}
	payload := int(binary.BigEndian.Uint32(r.len[:]))
	if payload > MaxPayload {
		*f = Frame{}
		return ErrTooLong
	}
	if payload < HeaderLen {
		*f = Frame{}
		return ErrMalformed
	}
	if cap(r.buf) < payload {
		r.buf = make([]byte, payload) //arblint:alloc amortized growth: steady state reuses the buffer
	}
	r.buf = r.buf[:payload]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		*f = Frame{}
		return err
	}
	return decodePayload(r.buf, f)
}

// Writer encodes frames onto an io.Writer through one reused buffer:
// after the first few frames, WriteFrame's encode path allocates
// nothing. It does no locking; callers serialize.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w.
//
//arblint:alloc constructor: one Writer per connection, at setup
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes f and writes it as one Write call.
func (w *Writer) WriteFrame(f *Frame) error {
	b, err := Append(w.buf[:0], f)
	if err != nil {
		return err
	}
	w.buf = b
	_, err = w.w.Write(b)
	return err
}
