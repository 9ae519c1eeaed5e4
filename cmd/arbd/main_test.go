package main

import "testing"

// TestParseResourcesFlatSlashName pins that only a multi-level agent
// count ("8x4") selects the tree form, so a flat resource can name a
// protocol whose registry name contains a slash.
func TestParseResourcesFlatSlashName(t *testing.T) {
	rcs, err := parseResources("a:4:RR1+prio/rr,b:8x2:RR1/FCFS2", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rcs[0].Topo != nil || rcs[0].Protocol != "RR1+prio/rr" || rcs[0].Agents != 4 {
		t.Errorf("flat resource parsed as %+v", rcs[0])
	}
	if rcs[1].Topo == nil || rcs[1].Topo.TotalAgents() != 16 {
		t.Errorf("tree resource parsed as %+v", rcs[1])
	}
}
