package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins dcsim's public flags and their defaults: a
// flag added, removed or renamed, or a changed default, fails here.
func TestFlagSurface(t *testing.T) {
	want := strings.Fields(`
		agent=false agent-faults=false agents=4 audit=false audit-out= audit-perturb=
		connect= cpuprofile= distributed=0 faults= fleet=false id=0 incarnation=0
		load= manifest= matrix=false mem-ceiling-mb=0 memprofile= metrics-addr=
		mirror= out=trace.fbm parallel=0 paths-out= pcap= queue-interval=200
		quiet=false save= scale=tiny seconds=30 seed=42 serve=false serve-config=
		serve-windows=0 sketch=false telemetry=false trace-out= trace-sample=0.1
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
