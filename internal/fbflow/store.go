package fbflow

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fbdcnet/internal/topology"
)

// Long-term storage (the Hive stage of Figure 3): a Dataset's aggregates
// serialize to a versioned JSON document, so a day's collection can be
// archived and re-queried without regenerating traffic. The format keys
// composite map entries as "a,b" strings since JSON objects require
// string keys.

// storeVersion identifies the archive format.
const storeVersion = 1

type storeDoc struct {
	Version      int                `json:"version"`
	TotalBytes   float64            `json:"total_bytes"`
	Locality     map[string]float64 `json:"locality"`      // "ct,loc" → bytes
	ByCluster    map[string]float64 `json:"by_cluster"`    // ct → bytes
	RackPair     map[string]float64 `json:"rack_pair"`     // "src,dst" → bytes
	ClusterPair  map[string]float64 `json:"cluster_pair"`  // "src,dst" → bytes
	PerMinute    map[string]float64 `json:"per_minute"`    // minute → bytes
	HostOut      map[string]float64 `json:"host_out"`      // host → bytes
	RackCross    map[string]float64 `json:"rack_cross"`    // rack → bytes
	ClusterCross map[string]float64 `json:"cluster_cross"` // cluster → bytes
}

func pairKey(a, b int) string { return fmt.Sprintf("%d,%d", a, b) }

func parsePair(s string) (int, int, error) {
	var a, b int
	if _, err := fmt.Sscanf(s, "%d,%d", &a, &b); err != nil {
		return 0, 0, fmt.Errorf("fbflow: bad pair key %q: %w", s, err)
	}
	return a, b, nil
}

// Save archives the dataset to w.
func (d *Dataset) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	doc := storeDoc{
		Version:      storeVersion,
		TotalBytes:   d.totalBytes,
		Locality:     map[string]float64{},
		ByCluster:    map[string]float64{},
		RackPair:     map[string]float64{},
		ClusterPair:  map[string]float64{},
		PerMinute:    map[string]float64{},
		HostOut:      map[string]float64{},
		RackCross:    map[string]float64{},
		ClusterCross: map[string]float64{},
	}
	for ct, locs := range d.locality {
		for l, v := range locs {
			doc.Locality[pairKey(int(ct), int(l))] = v
		}
	}
	for ct, v := range d.byClusterType {
		doc.ByCluster[fmt.Sprintf("%d", int(ct))] = v
	}
	for src, row := range d.rackPair {
		for dst, v := range row {
			doc.RackPair[pairKey(src, int(dst))] = v
		}
	}
	for p, v := range d.clusterPair {
		doc.ClusterPair[pairKey(unpackPair(p))] = v
	}
	for m, v := range d.perMinute {
		doc.PerMinute[fmt.Sprintf("%d", m)] = v
	}
	for h, v := range d.hostOut {
		doc.HostOut[fmt.Sprintf("%d", h)] = v
	}
	for r, v := range d.rackCross {
		doc.RackCross[fmt.Sprintf("%d", r)] = v
	}
	for c, v := range d.clusterCross {
		doc.ClusterCross[fmt.Sprintf("%d", c)] = v
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("fbflow: encoding dataset: %w", err)
	}
	return bw.Flush()
}

// Load reads an archived dataset from r.
func Load(r io.Reader) (*Dataset, error) {
	var doc storeDoc
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("fbflow: decoding dataset: %w", err)
	}
	if doc.Version != storeVersion {
		return nil, fmt.Errorf("fbflow: unsupported dataset version %d", doc.Version)
	}
	d := NewDataset()
	d.totalBytes = doc.TotalBytes
	for k, v := range doc.Locality {
		ct, l, err := parsePair(k)
		if err != nil {
			return nil, err
		}
		m := d.locality[topology.ClusterType(ct)]
		if m == nil {
			m = map[topology.Locality]float64{}
			d.locality[topology.ClusterType(ct)] = m
		}
		m[topology.Locality(l)] = v
	}
	for k, v := range doc.ByCluster {
		var ct int
		if _, err := fmt.Sscanf(k, "%d", &ct); err != nil {
			return nil, fmt.Errorf("fbflow: bad cluster key %q", k)
		}
		d.byClusterType[topology.ClusterType(ct)] = v
	}
	for k, v := range doc.RackPair {
		a, b, err := parsePair(k)
		if err != nil {
			return nil, err
		}
		if !pairInRange(a, b) {
			return nil, fmt.Errorf("fbflow: rack pair key %q out of range", k)
		}
		d.rackRow(a)[int32(b)] = v
	}
	for k, v := range doc.ClusterPair {
		a, b, err := parsePair(k)
		if err != nil {
			return nil, err
		}
		if !pairInRange(a, b) {
			return nil, fmt.Errorf("fbflow: cluster pair key %q out of range", k)
		}
		d.clusterPair[packPair(a, b)] = v
	}
	for k, v := range doc.PerMinute {
		var m int64
		if _, err := fmt.Sscanf(k, "%d", &m); err != nil {
			return nil, fmt.Errorf("fbflow: bad minute key %q", k)
		}
		d.perMinute[m] = v
	}
	for k, v := range doc.HostOut {
		var h int32
		if _, err := fmt.Sscanf(k, "%d", &h); err != nil {
			return nil, fmt.Errorf("fbflow: bad host key %q", k)
		}
		d.hostOut[topology.HostID(h)] = v
	}
	for k, v := range doc.RackCross {
		var rk int
		if _, err := fmt.Sscanf(k, "%d", &rk); err != nil {
			return nil, fmt.Errorf("fbflow: bad rack key %q", k)
		}
		d.rackCross[rk] = v
	}
	for k, v := range doc.ClusterCross {
		var c int
		if _, err := fmt.Sscanf(k, "%d", &c); err != nil {
			return nil, fmt.Errorf("fbflow: bad cluster key %q", k)
		}
		d.clusterCross[c] = v
	}
	return d, nil
}
