package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins experiments's public flags and their defaults: a
// flag added, removed or renamed, or a changed default, fails here.
func TestFlagSurface(t *testing.T) {
	want := strings.Fields(`
		agent=false agent-faults=false agents=4 audit=false audit-out= audit-perturb=
		connect= cpuprofile= distributed=0 faults= id=0 incarnation=0 json=false
		long=60 manifest=run_manifest.json matrix=false mem-ceiling-mb=0 memprofile=
		metrics-addr= only= parallel=0 paths-out= queue-interval=200 quiet=false
		scale=tiny seed=42 short=30 sketch=false trace-out= trace-sample=0.1
		windows=0`)
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
