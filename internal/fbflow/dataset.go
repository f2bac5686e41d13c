package fbflow

import (
	"sync"

	"fbdcnet/internal/topology"
)

// Dataset is the analytics store at the end of the pipeline (the
// Scuba/Hive stage of Figure 3): thread-safe aggregation of tagged
// records along the dimensions the paper's fleet analyses query. Raw
// records are not retained; memory stays bounded at matrix-of-racks
// scale.
//
// The rack-pair matrix, by far the largest aggregate, is stored as one
// row per source rack keyed by destination rack. A shard's partial
// covers a few source racks and lists its pairs grouped by source, so a
// merge touches a few small rows instead of probing one fleet-wide
// table, and RackMatrix reads only the rows of the cluster it asks for.
type Dataset struct {
	mu sync.Mutex

	totalBytes float64

	// locality[clusterType][locality] accumulates bytes for Table 3.
	locality map[topology.ClusterType]map[topology.Locality]float64
	// byClusterType accumulates bytes for Table 3's share row.
	byClusterType map[topology.ClusterType]float64
	// rackPair[src][dst] accumulates the Figure 5a/5b matrices; a row is
	// nil until its source rack sends.
	rackPair []map[int32]float64
	// clusterPair accumulates the Figure 5c matrix, keyed by packPair.
	clusterPair map[uint64]float64
	// perMinute accumulates fleet bytes per capture minute (diurnal).
	perMinute map[int64]float64
	// hostOut / rackCross / clusterCross feed §4.1 tier utilization:
	// bytes leaving each host, each rack, and each cluster.
	hostOut      map[topology.HostID]float64
	rackCross    map[int]float64
	clusterCross map[int]float64

	// card holds merged distinct-population sketches when the partials
	// that built this dataset had cardinality enabled; nil otherwise.
	card *Cardinality
}

// NewDataset returns an empty Dataset.
func NewDataset() *Dataset {
	return &Dataset{
		locality:      make(map[topology.ClusterType]map[topology.Locality]float64),
		byClusterType: make(map[topology.ClusterType]float64),
		clusterPair:   make(map[uint64]float64),
		perMinute:     make(map[int64]float64),
		hostOut:       make(map[topology.HostID]float64),
		rackCross:     make(map[int]float64),
		clusterCross:  make(map[int]float64),
	}
}

// rackRow returns source rack src's row of the rack-pair matrix,
// creating it (and growing the row table) on first use. Callers hold mu.
func (d *Dataset) rackRow(src int) map[int32]float64 {
	if src >= len(d.rackPair) {
		d.rackPair = append(d.rackPair, make([]map[int32]float64, src+1-len(d.rackPair))...)
	}
	row := d.rackPair[src]
	if row == nil {
		row = make(map[int32]float64)
		d.rackPair[src] = row
	}
	return row
}

// Add ingests one record; safe for concurrent use (it is the pipeline
// sink).
func (d *Dataset) Add(r Record) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totalBytes += r.Bytes
	loc := d.locality[r.SrcClusterType]
	if loc == nil {
		loc = make(map[topology.Locality]float64)
		d.locality[r.SrcClusterType] = loc
	}
	loc[r.Locality] += r.Bytes
	d.byClusterType[r.SrcClusterType] += r.Bytes
	d.rackRow(r.SrcRack)[int32(r.DstRack)] += r.Bytes
	d.clusterPair[packPair(r.SrcCluster, r.DstCluster)] += r.Bytes
	d.perMinute[r.Minute] += r.Bytes
	d.hostOut[r.Src] += r.Bytes
	if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
		d.rackCross[r.SrcRack] += r.Bytes
		if r.Locality != topology.IntraCluster {
			d.clusterCross[r.SrcCluster] += r.Bytes
		}
	}
}

// Cardinality returns the merged distinct-population sketches, or nil
// when the collection ran without them (exact mode).
func (d *Dataset) Cardinality() *Cardinality {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.card
}

// TotalBytes returns the estimated fleet-wide bytes ingested.
func (d *Dataset) TotalBytes() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalBytes
}

// LocalityShare returns, for one cluster type, the fraction of its
// traffic per locality tier — one column of Table 3.
func (d *Dataset) LocalityShare(ct topology.ClusterType) map[topology.Locality]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.Locality]float64)
	total := d.byClusterType[ct]
	if total == 0 {
		return out
	}
	for l, b := range d.locality[ct] {
		out[l] = b / total
	}
	return out
}

// LocalityShareAll returns the fleet-wide locality fractions — Table 3's
// "All" column. Cluster types are folded in declaration order, not map
// order: per-locality sums must accumulate in a fixed sequence for the
// result to be bit-identical run-to-run (the determinism contract the
// parallel engine's regression test asserts).
func (d *Dataset) LocalityShareAll() map[topology.Locality]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.Locality]float64)
	if d.totalBytes == 0 {
		return out
	}
	for _, ct := range topology.ClusterTypes {
		for l, b := range d.locality[ct] {
			out[l] += b / d.totalBytes
		}
	}
	return out
}

// TrafficShare returns each cluster type's share of total traffic —
// Table 3's last row.
func (d *Dataset) TrafficShare() map[topology.ClusterType]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.ClusterType]float64)
	if d.totalBytes == 0 {
		return out
	}
	for ct, b := range d.byClusterType {
		out[ct] = b / d.totalBytes
	}
	return out
}

// RackMatrix returns the rack-to-rack byte matrix restricted to the racks
// of one cluster, indexed by rack position within the cluster (Fig 5a/b).
// Only the cluster's own rows are read.
func (d *Dataset) RackMatrix(topo *topology.Topology, cluster int) [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	racks := topo.Clusters[cluster].Racks
	pos := make(map[int32]int, len(racks))
	for i, r := range racks {
		pos[int32(r)] = i
	}
	m := make([][]float64, len(racks))
	for i, src := range racks {
		m[i] = make([]float64, len(racks))
		if src >= len(d.rackPair) {
			continue
		}
		for dst, b := range d.rackPair[src] {
			if di, ok := pos[dst]; ok {
				m[i][di] += b
			}
		}
	}
	return m
}

// ClusterMatrix returns the cluster-to-cluster byte matrix over the given
// clusters (Fig 5c).
func (d *Dataset) ClusterMatrix(clusters []int) [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	pos := make(map[int]int, len(clusters))
	for i, c := range clusters {
		pos[c] = i
	}
	m := make([][]float64, len(clusters))
	for i := range m {
		m[i] = make([]float64, len(clusters))
	}
	for pair, b := range d.clusterPair {
		src, dst := unpackPair(pair)
		si, ok1 := pos[src]
		di, ok2 := pos[dst]
		if ok1 && ok2 {
			m[si][di] += b
		}
	}
	return m
}

// PerMinute returns the fleet byte series by capture minute.
func (d *Dataset) PerMinute() map[int64]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int64]float64, len(d.perMinute))
	for k, v := range d.perMinute {
		out[k] = v
	}
	return out
}

// HostOutBytes returns bytes sent per host (edge-link accounting).
func (d *Dataset) HostOutBytes() map[topology.HostID]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.HostID]float64, len(d.hostOut))
	for k, v := range d.hostOut {
		out[k] = v
	}
	return out
}

// RackCrossBytes returns bytes leaving each rack (RSW uplink accounting).
func (d *Dataset) RackCrossBytes() map[int]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]float64, len(d.rackCross))
	for k, v := range d.rackCross {
		out[k] = v
	}
	return out
}

// ClusterCrossBytes returns bytes leaving each cluster (CSW uplink
// accounting).
func (d *Dataset) ClusterCrossBytes() map[int]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]float64, len(d.clusterCross))
	for k, v := range d.clusterCross {
		out[k] = v
	}
	return out
}
