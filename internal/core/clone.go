package core

// State-copy support used by the exhaustive verifier (internal/verify):
// each protocol can duplicate its register state so the explorer can
// branch without replaying histories. These are verification hooks, not
// part of the scheduling semantics.

import "busarb/internal/bitarb"

// SetLastWinner overwrites the winner register (verification hook).
func (p *RR1) SetLastWinner(w int) { p.lastWinner = w }

// SetLastWinner overwrites the winner register (verification hook).
func (p *RR2) SetLastWinner(w int) { p.lastWinner = w }

// SetLastWinner overwrites the winner register (verification hook).
func (p *RR3) SetLastWinner(w int) { p.lastWinner = w }

// Clone returns a deep copy (verification hook).
func (p *FCFS1) Clone() *FCFS1 {
	c := *p
	c.ctr = p.ctr.Clone()
	return &c
}

// Clone returns a deep copy (verification hook).
func (p *FCFS2) Clone() *FCFS2 {
	c := *p
	c.ctr = p.ctr.Clone()
	return &c
}

// Clone returns a deep copy (verification hook).
func (p *AAP1) Clone() *AAP1 {
	c := *p
	bitarb.InitVecs(p.n, &c.batch, &c.pending)
	c.batch.CopyFrom(&p.batch)
	c.pending.CopyFrom(&p.pending)
	return &c
}

// Clone returns a deep copy (verification hook).
func (p *AAP2) Clone() *AAP2 {
	c := *p
	bitarb.InitVecs(p.n, &c.inhibited, &c.waiting)
	c.inhibited.CopyFrom(&p.inhibited)
	c.waiting.CopyFrom(&p.waiting)
	return &c
}

// Clone returns a deep copy (verification hook).
func (p *RotatingRR) Clone() *RotatingRR {
	c := *p
	c.base = append([]int(nil), p.base...)
	return &c
}
