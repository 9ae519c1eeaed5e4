package core

// The central reference arbiters the distributed protocols are pinned
// to:
//
//   - centralRR: a central round-robin arbiter. The paper claims its
//     distributed RR protocol is "identical to the central round-robin
//     arbiter" (§1); TestRRMatchesCentralOracle asserts grant-sequence
//     equality.
//   - centralQueue: a central queue serving requests in arrival order
//     (ties at identical arrival instants broken toward the higher
//     static identity, matching the contention tie-break);
//     TestFCFS2MatchesCentralQueue holds FCFS2 to it.
//   - centralTicket: the Sharma–Ahuja ticket-assignment FCFS scheme
//     [ShAh81] the paper cites as prior FCFS work — requesters draw
//     increasing ticket numbers and the lowest outstanding ticket is
//     served.

import (
	"fmt"
	"sort"
	"testing"
)

// centralRR is a central round-robin arbiter over agents 1..N that
// performs the paper's scan: after granting agent j, the next grant
// scans j-1 down to 1, then N down to j.
type centralRR struct {
	n    int
	last int
}

// newCentralRR returns a central RR arbiter for n agents.
func newCentralRR(n int) *centralRR { return &centralRR{n: n} }

// Last returns the previously granted identity (0 before any grant).
func (r *centralRR) Last() int { return r.last }

// Grant selects the next agent among waiting (any order, ids 1..N) and
// records it. It returns 0 if waiting is empty.
func (r *centralRR) Grant(waiting []int) int {
	bestBelow, bestAny := 0, 0
	for _, id := range waiting {
		if id <= 0 || id > r.n {
			panic(fmt.Sprintf("central: bad id %d", id))
		}
		if id < r.last && id > bestBelow {
			bestBelow = id
		}
		if id > bestAny {
			bestAny = id
		}
	}
	w := bestBelow
	if w == 0 {
		w = bestAny
	}
	if w != 0 {
		r.last = w
	}
	return w
}

// Reset restores the initial state.
func (r *centralRR) Reset() { r.last = 0 }

// centralQueue is a central first-come first-serve queue. Requests
// enqueue with their arrival time; Grant serves the earliest arrival,
// breaking ties at identical instants toward the higher identity.
type centralQueue struct {
	reqs []fcfsReq
}

type fcfsReq struct {
	id   int
	time float64
	seq  int64
}

// Enqueue records a request from agent id at the given time. Callers
// must enqueue in non-decreasing time order.
func (q *centralQueue) Enqueue(id int, time float64) {
	q.reqs = append(q.reqs, fcfsReq{id: id, time: time, seq: int64(len(q.reqs))})
}

// Len returns the number of queued requests.
func (q *centralQueue) Len() int { return len(q.reqs) }

// Grant removes and returns the next request's agent identity, or 0 if
// the queue is empty.
func (q *centralQueue) Grant() int {
	if len(q.reqs) == 0 {
		return 0
	}
	best := 0
	for i := 1; i < len(q.reqs); i++ {
		a, b := q.reqs[i], q.reqs[best]
		if a.time < b.time || (a.time == b.time && a.id > b.id) {
			best = i
		}
	}
	id := q.reqs[best].id
	q.reqs = append(q.reqs[:best], q.reqs[best+1:]...)
	return id
}

// Reset empties the queue.
func (q *centralQueue) Reset() { q.reqs = nil }

// centralTicket is the Sharma–Ahuja FCFS scheme: a global ticket
// counter hands out increasing tickets at request time; the lowest
// outstanding ticket is served next. With distinct tickets it is
// exactly FCFS in request order; simultaneous requests receive distinct
// tickets in identity order (higher identity first, to match the
// contention tie-break).
type centralTicket struct {
	next    int64
	holders map[int]int64 // agent id -> ticket
}

// newCentralTicket returns an empty ticket arbiter.
func newCentralTicket() *centralTicket { return &centralTicket{holders: make(map[int]int64)} }

// Take assigns the next ticket to agent id. Simultaneous arrivals must
// be passed together via TakeBatch for the identity-order tie-break.
func (t *centralTicket) Take(id int) {
	t.holders[id] = t.next
	t.next++
}

// TakeBatch assigns tickets to agents that requested at the same
// instant, in descending identity order.
func (t *centralTicket) TakeBatch(ids []int) {
	sorted := append([]int(nil), ids...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, id := range sorted {
		t.Take(id)
	}
}

// Grant removes and returns the agent holding the lowest ticket, or 0
// if none.
func (t *centralTicket) Grant() int {
	best, bestTicket := 0, int64(-1)
	for id, tk := range t.holders {
		if bestTicket < 0 || tk < bestTicket {
			best, bestTicket = id, tk
		}
	}
	if best != 0 {
		delete(t.holders, best)
	}
	return best
}

// Outstanding returns the number of agents holding tickets.
func (t *centralTicket) Outstanding() int { return len(t.holders) }

// Reset restores the initial state.
func (t *centralTicket) Reset() {
	t.next = 0
	t.holders = make(map[int]int64)
}

func TestRoundRobinScan(t *testing.T) {
	r := newCentralRR(8)
	if w := r.Grant([]int{3, 5, 7}); w != 7 {
		t.Fatalf("first grant = %d, want 7 (no history: max)", w)
	}
	if w := r.Grant([]int{3, 5}); w != 5 {
		t.Fatalf("grant = %d, want 5 (scan below 7)", w)
	}
	if w := r.Grant([]int{3, 8}); w != 3 {
		t.Fatalf("grant = %d, want 3 (below 5 beats 8)", w)
	}
	if w := r.Grant([]int{8, 2}); w != 2 {
		t.Fatalf("grant = %d, want 2", w)
	}
	if w := r.Grant([]int{8}); w != 8 {
		t.Fatalf("grant = %d, want 8 (wrap to top)", w)
	}
	if r.Last() != 8 {
		t.Errorf("Last = %d", r.Last())
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	r := newCentralRR(4)
	if w := r.Grant(nil); w != 0 {
		t.Errorf("empty grant = %d, want 0", w)
	}
	r.Grant([]int{2})
	r.Reset()
	if r.Last() != 0 {
		t.Error("Reset failed")
	}
}

func TestRoundRobinPanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad id did not panic")
		}
	}()
	newCentralRR(4).Grant([]int{5})
}

func TestFCFSQueueOrder(t *testing.T) {
	var q centralQueue
	q.Enqueue(3, 1.0)
	q.Enqueue(7, 2.0)
	q.Enqueue(1, 2.0) // tie with 7: higher id first
	q.Enqueue(5, 3.0)
	want := []int{3, 7, 1, 5}
	for i, w := range want {
		if g := q.Grant(); g != w {
			t.Fatalf("grant %d = %d, want %d", i, g, w)
		}
	}
	if q.Grant() != 0 || q.Len() != 0 {
		t.Error("empty queue misbehaves")
	}
}

func TestFCFSQueueReset(t *testing.T) {
	var q centralQueue
	q.Enqueue(1, 0)
	q.Reset()
	if q.Len() != 0 {
		t.Error("Reset failed")
	}
}

func TestTicketOrder(t *testing.T) {
	tk := newCentralTicket()
	tk.Take(4)
	tk.Take(2)
	tk.TakeBatch([]int{1, 6}) // simultaneous: 6 then 1
	want := []int{4, 2, 6, 1}
	for i, w := range want {
		if g := tk.Grant(); g != w {
			t.Fatalf("grant %d = %d, want %d", i, g, w)
		}
	}
	if tk.Grant() != 0 {
		t.Error("empty grant should be 0")
	}
}

func TestTicketOutstandingAndReset(t *testing.T) {
	tk := newCentralTicket()
	tk.Take(1)
	tk.Take(2)
	if tk.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", tk.Outstanding())
	}
	tk.Reset()
	if tk.Outstanding() != 0 || tk.Grant() != 0 {
		t.Error("Reset failed")
	}
}

// centralTicket and centralQueue must agree when fed the same arrivals.
func TestTicketMatchesQueue(t *testing.T) {
	var q centralQueue
	tk := newCentralTicket()
	arrivals := []struct {
		id int
		t  float64
	}{{5, 1}, {2, 2}, {8, 3}, {1, 4}, {6, 5}}
	for _, a := range arrivals {
		q.Enqueue(a.id, a.t)
		tk.Take(a.id)
	}
	for q.Len() > 0 {
		if g1, g2 := q.Grant(), tk.Grant(); g1 != g2 {
			t.Fatalf("queue %d != ticket %d", g1, g2)
		}
	}
}
