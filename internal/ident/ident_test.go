package ident

import (
	"testing"
	"testing/quick"
)

func TestWidth(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{10, 4}, {30, 5}, {31, 5}, {32, 6}, {63, 6}, {64, 7},
	}
	for _, c := range cases {
		if got := Width(c.n); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The paper notes Futurebus uses k=6, i.e. up to 63 agents.
	if Width(63) != 6 {
		t.Error("Futurebus k=6 example violated")
	}
}

func TestTotalBits(t *testing.T) {
	l := Layout{StaticBits: 5, RRBit: true, CounterBits: 5, PriorityBit: true}
	if got := l.TotalBits(); got != 12 {
		t.Errorf("TotalBits = %d, want 12", got)
	}
	// The paper (§3.2): FCFS at most doubles the identity size.
	fc := Layout{StaticBits: 6, CounterBits: 6}
	if fc.TotalBits() != 12 {
		t.Error("FCFS layout should double the static width")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	layouts := []Layout{
		{StaticBits: 4},
		{StaticBits: 4, RRBit: true},
		{StaticBits: 5, CounterBits: 5},
		{StaticBits: 5, CounterBits: 5, PriorityBit: true},
		{StaticBits: 6, RRBit: true, CounterBits: 3, PriorityBit: true},
	}
	for _, l := range layouts {
		f := func(static, counter uint8, rr, prio bool) bool {
			n := Number{
				// Identity 0 is reserved, so valid statics are
				// 1..2^StaticBits-1.
				Static:   1 + int(static)%(1<<l.StaticBits-1),
				RR:       rr && l.RRBit,
				Counter:  0,
				Priority: prio && l.PriorityBit,
			}
			if l.CounterBits > 0 {
				n.Counter = int(counter) % (1 << l.CounterBits)
			}
			return l.Decode(l.Encode(n)) == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("layout %+v: %v", l, err)
		}
	}
}

func TestEncodeOrdering(t *testing.T) {
	l := Layout{StaticBits: 4, RRBit: true, CounterBits: 4, PriorityBit: true}
	// Priority dominates counter dominates RR dominates static.
	lowPrio := l.Encode(Number{Static: 15, Counter: 15, RR: true})
	highPrio := l.Encode(Number{Static: 1, Priority: true})
	if highPrio <= lowPrio {
		t.Error("priority bit must dominate all other fields")
	}
	lowCtr := l.Encode(Number{Static: 15, RR: true, Counter: 3})
	highCtr := l.Encode(Number{Static: 1, Counter: 4})
	if highCtr <= lowCtr {
		t.Error("counter must dominate RR bit and static id")
	}
	noRR := l.Encode(Number{Static: 15})
	withRR := l.Encode(Number{Static: 1, RR: true})
	if withRR <= noRR {
		t.Error("RR bit must dominate static id")
	}
	small := l.Encode(Number{Static: 3})
	big := l.Encode(Number{Static: 9})
	if big <= small {
		t.Error("static ordering broken")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		layout Layout
		n      Number
		ok     bool
	}{
		{"min static", Layout{StaticBits: 3}, Number{Static: 1}, true},
		{"max static", Layout{StaticBits: 3}, Number{Static: 7}, true},
		{"full composite", Layout{StaticBits: 3, RRBit: true, CounterBits: 2, PriorityBit: true},
			Number{Static: 5, RR: true, Counter: 3, Priority: true}, true},
		// The reserved identity: a winning identity of zero means "no
		// competitor" (§2.1), so no agent may carry Static == 0. This
		// used to be accepted.
		{"reserved zero", Layout{StaticBits: 3}, Number{Static: 0}, false},
		{"reserved zero wide", Layout{StaticBits: 6, CounterBits: 6}, Number{Static: 0, Counter: 3}, false},
		{"static too big", Layout{StaticBits: 3}, Number{Static: 8}, false},
		{"static negative", Layout{StaticBits: 3}, Number{Static: -1}, false},
		{"RR without RR bit", Layout{StaticBits: 3}, Number{Static: 1, RR: true}, false},
		{"counter without field", Layout{StaticBits: 3}, Number{Static: 1, Counter: 1}, false},
		{"counter too big", Layout{StaticBits: 3, CounterBits: 2}, Number{Static: 1, Counter: 4}, false},
		{"priority without bit", Layout{StaticBits: 3}, Number{Static: 1, Priority: true}, false},
		{"no static field", Layout{}, Number{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.layout.Validate(c.n)
			if c.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", c.n, err)
			}
			if !c.ok && err == nil {
				t.Errorf("Validate(%+v) accepted invalid number", c.n)
			}
		})
	}
}

// TestEncodeRejectsReservedIdentity pins the reserved identity at the
// Encode layer too: protocols must never place identity 0 on the lines.
func TestEncodeRejectsReservedIdentity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode(Static: 0) did not panic")
		}
	}()
	Layout{StaticBits: 4}.Encode(Number{Static: 0})
}

func TestEncodePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode of invalid number did not panic")
		}
	}()
	Layout{StaticBits: 2}.Encode(Number{Static: 4})
}

func TestBitsRoundTrip(t *testing.T) {
	l := Layout{StaticBits: 5, RRBit: true, CounterBits: 5}
	f := func(raw uint16) bool {
		v := uint64(raw) % (1 << l.TotalBits())
		bs := l.Bits(v)
		if len(bs) != l.TotalBits() {
			return false
		}
		return l.FromBits(bs) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBitsMSBFirst(t *testing.T) {
	l := Layout{StaticBits: 4}
	bs := l.Bits(0b1010)
	want := []bool{true, false, true, false}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("Bits(0b1010) = %v, want %v", bs, want)
		}
	}
}

// The paper's §3.1 example: agents 1010101 and 0011100 compete; the
// winner must be 1010101.
func TestPaperExampleIdentities(t *testing.T) {
	l := Layout{StaticBits: 7}
	a := l.Encode(Number{Static: 0b1010101})
	b := l.Encode(Number{Static: 0b0011100})
	if a <= b {
		t.Errorf("1010101 encodes to %b, not above 0011100's %b: it must win", a, b)
	}
}
