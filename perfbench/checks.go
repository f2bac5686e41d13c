package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// expected.json holds the SHA-256 of every checked output, recorded for
// the shipped seeds: seed -> workload -> output key -> hash. Regenerate
// an entry with `perfbench --workload W --seed N --record`, which prints
// the hashes of one operation's outputs.
//
//go:embed expected.json
var expectedJSON []byte

// goldenPath is the rendered reference transcript, relative to the
// repository root. host-traces on goldenSeed must reproduce the body of
// every section it renders.
const (
	goldenPath = "experiments_output.txt"
	goldenSeed = 42
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// expectations returns the output hashes an operation of w on seed must
// produce, or an empty map when the seed ships none.
func expectations(w *workloadDef, seed uint64) (map[string]string, error) {
	var table map[string]map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &table); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	name := w.name
	if w.reference != "" {
		name = w.reference
	}
	want := map[string]string{}
	for k, v := range table[strconv.FormatUint(seed, 10)][name] {
		want[k] = v
	}
	if w.name == "host-traces" && seed == goldenSeed {
		bodies, err := goldenSections(goldenPath)
		if err != nil {
			return nil, err
		}
		for _, n := range hostSections {
			body, ok := bodies[n]
			if !ok {
				return nil, fmt.Errorf("%s: no section %s", goldenPath, n)
			}
			want["section:"+n] = sha([]byte(body))
		}
	}
	return want, nil
}

// goldenSections splits the rendered transcript into section bodies.
// The harness writes "=== name (secs) ===", the section's text, and one
// blank line; the body is the text without that trailing blank line.
func goldenSections(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	var name string
	var body []string
	flush := func() {
		if name == "" {
			return
		}
		if n := len(body); n > 0 && body[n-1] == "" {
			body = body[:n-1]
		}
		out[name] = strings.Join(body, "\n") + "\n"
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "=== ") && strings.HasSuffix(line, " ===") {
			flush()
			name, _, _ = strings.Cut(strings.TrimPrefix(line, "=== "), " ")
			body = body[:0]
			continue
		}
		if name != "" {
			body = append(body, line)
		}
	}
	flush()
	return out, sc.Err()
}

// checker counts output checks. Every operation is one check that it
// finished without error (which includes the workload's invariants), plus
// one per output: against the expected hash when the seed ships one, and
// otherwise against the first operation's output, so a run of several
// operations also checks that the program is deterministic.
type checker struct {
	want      map[string]string
	first     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, first: map[string]string{}}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one named pass/fail outcome.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// op checks one operation's result.
func (c *checker) op(r opResult) {
	c.attempted++
	if r.err != nil {
		c.fail("operation failed: %v", r.err)
		for range c.want { // its outputs are missing too
			c.attempted++
			c.failed++
		}
		return
	}
	for k := range c.want {
		if _, ok := r.outputs[k]; !ok {
			c.attempted++
			c.fail("output %s missing", k)
		}
	}
	keys := make([]string, 0, len(r.outputs))
	for k := range r.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := sha(r.outputs[k])
		if want, ok := c.want[k]; ok {
			c.check(h == want, "output %s: sha256 %s, want %s", k, h[:16], want[:min(16, len(want))])
		} else if c.first[k] != "" {
			c.check(h == c.first[k], "output %s differs between operations of one seed", k)
		}
		if c.first[k] == "" {
			c.first[k] = h
		}
	}
}

func (c *checker) okFrac() float64 {
	return 1 - float64(c.failed)/float64(max(c.attempted, 1))
}
