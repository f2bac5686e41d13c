package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins fbflowd's public flags and their defaults: a
// flag added, removed or renamed, or a changed default, fails here.
func TestFlagSurface(t *testing.T) {
	want := strings.Fields(`
		agent=false agent-faults=false agents=4 audit=false audit-out= audit-perturb=
		connect= id=0 incarnation=0 listen= manifest= matrix=false metrics-addr=
		parallel=0 quiet=false reconnect-wait-sec=10 scale=tiny seed=42 single=false
		sketch=false spawn=false trace-out= windows=0`)
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name+"="+f.DefValue)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
