package fbflow

import (
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/topology"
)

// Partial is a shard-local columnar accumulator for the parallel fleet
// collector: the same aggregates a Dataset holds, stored in fixed arrays
// and open-addressing tables instead of one map entry per key per shard.
// A Partial is single-goroutine (no mutex — each collection task owns
// one), reusable via Reset, and folded into the shared Dataset with
// MergePartial.
//
// Bit-identity: within a shard, Add folds records in the same order
// Dataset.Add would, so every per-key partial sum is the float64 a
// per-shard Dataset would hold; MergePartial then adds those sums key by
// key, one addition per partial. Since no arithmetic ever crosses keys,
// the iteration order over keys is immaterial and the merged dataset is
// bit-identical to the map-based path.
type Partial struct {
	totalBytes float64

	// locality[clusterType][locality] and byClusterType are dense: both
	// dimensions are tiny closed enums.
	locality      [topology.ClusterDB + 1][topology.InterDatacenter + 1]float64
	byClusterType [topology.ClusterDB + 1]float64

	// Pair and sparse-key aggregates live in packed-key tables. Rack,
	// cluster, and minute indexes all fit in 32 bits by construction
	// (bounded by fleet size and windows), so two of them pack into one
	// uint64 without collision.
	rackPair     openhash.Table[float64] // src<<32 | dst
	clusterPair  openhash.Table[float64] // src<<32 | dst
	perMinute    openhash.Table[float64] // uint64(minute)
	hostOut      openhash.Table[float64] // uint64(HostID)
	rackCross    openhash.Table[float64] // uint64(rack)
	clusterCross openhash.Table[float64] // uint64(cluster)

	// card, when enabled, tracks distinct flow/host/rack populations
	// alongside the byte aggregates (sketch mode). Nil costs one
	// predicted branch per record.
	card *Cardinality
}

// NewPartial returns an empty Partial.
func NewPartial() *Partial { return &Partial{} }

// EnableCardinality attaches HLL distinct counters to the partial
// (idempotent). Call before the first Add; the fleet engine enables it
// on every pooled partial when Config.SketchMode is set.
func (p *Partial) EnableCardinality() {
	if p.card == nil {
		p.card = NewCardinality()
	}
}

// maxPairIndex bounds the rack and cluster indexes accepted from outside
// input: archives (Load) and the Partial wire form (DecodeBinary). The
// rack-pair matrix keeps one row slot per source rack up to the largest
// seen, so an unchecked index would let a corrupt input demand gigabytes;
// the bound is 30× the largest preset's 34,560 racks.
const maxPairIndex = 1 << 20

// packPair packs an ordered (src, dst) index pair into one table key.
func packPair(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// unpackPair is the inverse of packPair.
func unpackPair(k uint64) (src, dst int) { return int(int32(k >> 32)), int(int32(uint32(k))) }

// pairInRange reports whether both indexes of a pair lie in [0, maxPairIndex).
func pairInRange(src, dst int) bool {
	return src >= 0 && dst >= 0 && src < maxPairIndex && dst < maxPairIndex
}

// Add folds one record, mirroring Dataset.Add without locks or map
// assignments.
func (p *Partial) Add(r Record) {
	p.totalBytes += r.Bytes
	p.locality[r.SrcClusterType][r.Locality] += r.Bytes
	p.byClusterType[r.SrcClusterType] += r.Bytes
	*p.rackPair.Slot(packPair(r.SrcRack, r.DstRack)) += r.Bytes
	*p.clusterPair.Slot(packPair(r.SrcCluster, r.DstCluster)) += r.Bytes
	*p.perMinute.Slot(uint64(r.Minute)) += r.Bytes
	*p.hostOut.Slot(uint64(r.Src)) += r.Bytes
	if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
		*p.rackCross.Slot(uint64(r.SrcRack)) += r.Bytes
		if r.Locality != topology.IntraCluster {
			*p.clusterCross.Slot(uint64(r.SrcCluster)) += r.Bytes
		}
	}
	if p.card != nil {
		p.card.Add(r)
	}
}

// Reset clears every aggregate while keeping table capacity, so a pooled
// Partial's steady-state Add path allocates nothing.
func (p *Partial) Reset() {
	p.totalBytes = 0
	p.locality = [topology.ClusterDB + 1][topology.InterDatacenter + 1]float64{}
	p.byClusterType = [topology.ClusterDB + 1]float64{}
	p.rackPair.Reset()
	p.clusterPair.Reset()
	p.perMinute.Reset()
	p.hostOut.Reset()
	p.rackCross.Reset()
	p.clusterCross.Reset()
	if p.card != nil {
		p.card.Reset()
	}
}

// MergePartial folds a shard's Partial into d. The caller serializes
// MergePartial calls in task order; every key then receives one addition
// per partial in that order, whichever worker built the partial. The
// partial's rack pairs come grouped by source rack (insertion order
// follows the shard's source hosts), so the current row is looked up
// once per run of same-source keys rather than once per key.
func (d *Dataset) MergePartial(p *Partial) {
	if p == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totalBytes += p.totalBytes
	for ct := range p.locality {
		for l, b := range p.locality[ct] {
			if b == 0 {
				continue
			}
			loc := d.locality[topology.ClusterType(ct)]
			if loc == nil {
				loc = make(map[topology.Locality]float64)
				d.locality[topology.ClusterType(ct)] = loc
			}
			loc[topology.Locality(l)] += b
		}
	}
	for ct, b := range p.byClusterType {
		if b != 0 {
			d.byClusterType[topology.ClusterType(ct)] += b
		}
	}
	src := -1
	var row map[int32]float64
	p.rackPair.Range(func(k uint64, v *float64) {
		s, dst := unpackPair(k)
		if s != src {
			src = s
			row = d.rackRow(s)
		}
		row[int32(dst)] += *v
	})
	p.clusterPair.Range(func(k uint64, v *float64) { d.clusterPair[k] += *v })
	p.perMinute.Range(func(k uint64, v *float64) { d.perMinute[int64(k)] += *v })
	p.hostOut.Range(func(k uint64, v *float64) { d.hostOut[topology.HostID(k)] += *v })
	p.rackCross.Range(func(k uint64, v *float64) { d.rackCross[int(k)] += *v })
	p.clusterCross.Range(func(k uint64, v *float64) { d.clusterCross[int(k)] += *v })
	if p.card != nil {
		if d.card == nil {
			d.card = NewCardinality()
		}
		d.card.Merge(p.card)
	}
}
