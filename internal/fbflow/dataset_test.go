package fbflow

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// refDataset is the flat-map Dataset layout the row-per-source-rack
// store replaced, kept as the reference for the differential test: one
// map entry per (src, dst) rack pair and per (src, dst) cluster pair,
// with Add, Merge and the matrix readers as they were.
type refDataset struct {
	totalBytes    float64
	locality      map[topology.ClusterType]map[topology.Locality]float64
	byClusterType map[topology.ClusterType]float64
	rackPair      map[[2]int]float64
	clusterPair   map[[2]int]float64
	perMinute     map[int64]float64
	hostOut       map[topology.HostID]float64
	rackCross     map[int]float64
	clusterCross  map[int]float64
}

func newRefDataset() *refDataset {
	return &refDataset{
		locality:      map[topology.ClusterType]map[topology.Locality]float64{},
		byClusterType: map[topology.ClusterType]float64{},
		rackPair:      map[[2]int]float64{},
		clusterPair:   map[[2]int]float64{},
		perMinute:     map[int64]float64{},
		hostOut:       map[topology.HostID]float64{},
		rackCross:     map[int]float64{},
		clusterCross:  map[int]float64{},
	}
}

func (d *refDataset) add(r Record) {
	d.totalBytes += r.Bytes
	if d.locality[r.SrcClusterType] == nil {
		d.locality[r.SrcClusterType] = map[topology.Locality]float64{}
	}
	d.locality[r.SrcClusterType][r.Locality] += r.Bytes
	d.byClusterType[r.SrcClusterType] += r.Bytes
	d.rackPair[[2]int{r.SrcRack, r.DstRack}] += r.Bytes
	d.clusterPair[[2]int{r.SrcCluster, r.DstCluster}] += r.Bytes
	d.perMinute[r.Minute] += r.Bytes
	d.hostOut[r.Src] += r.Bytes
	if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
		d.rackCross[r.SrcRack] += r.Bytes
		if r.Locality != topology.IntraCluster {
			d.clusterCross[r.SrcCluster] += r.Bytes
		}
	}
}

func (d *refDataset) merge(o *refDataset) {
	d.totalBytes += o.totalBytes
	for ct, loc := range o.locality {
		if d.locality[ct] == nil {
			d.locality[ct] = map[topology.Locality]float64{}
		}
		for l, b := range loc {
			d.locality[ct][l] += b
		}
	}
	for ct, b := range o.byClusterType {
		d.byClusterType[ct] += b
	}
	for k, b := range o.rackPair {
		d.rackPair[k] += b
	}
	for k, b := range o.clusterPair {
		d.clusterPair[k] += b
	}
	for k, b := range o.perMinute {
		d.perMinute[k] += b
	}
	for k, b := range o.hostOut {
		d.hostOut[k] += b
	}
	for k, b := range o.rackCross {
		d.rackCross[k] += b
	}
	for k, b := range o.clusterCross {
		d.clusterCross[k] += b
	}
}

// pairMatrix is the flat-map matrix reader: scan every pair, keep those
// whose ends both lie in ids.
func pairMatrix(pairs map[[2]int]float64, ids []int) [][]float64 {
	pos := map[int]int{}
	for i, id := range ids {
		pos[id] = i
	}
	m := make([][]float64, len(ids))
	for i := range m {
		m[i] = make([]float64, len(ids))
	}
	for k, b := range pairs {
		si, ok1 := pos[k[0]]
		di, ok2 := pos[k[1]]
		if ok1 && ok2 {
			m[si][di] += b
		}
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkMatrix(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func checkMap[K comparable](t *testing.T, what string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || !sameBits(g, v) {
			t.Fatalf("%s[%v] = %v (present %v), want %v", what, k, g, ok, v)
		}
	}
}

// checkAgainstRef asserts that every reader of ds returns, bit for bit,
// what the flat-map reference computes, and that the archive's
// rack_pair section lists exactly the reference's pairs.
func checkAgainstRef(t *testing.T, name string, topo *topology.Topology, ds *Dataset, ref *refDataset) {
	t.Helper()
	if !sameBits(ds.TotalBytes(), ref.totalBytes) {
		t.Fatalf("%s: total %v, want %v", name, ds.TotalBytes(), ref.totalBytes)
	}
	for c := range topo.Clusters {
		checkMatrix(t, name+" rack matrix", ds.RackMatrix(topo, c), pairMatrix(ref.rackPair, topo.Clusters[c].Racks))
	}
	clusters := make([]int, len(topo.Clusters))
	for i := range clusters {
		clusters[i] = len(clusters) - 1 - i // reversed: positions are not IDs
	}
	checkMatrix(t, name+" cluster matrix", ds.ClusterMatrix(clusters), pairMatrix(ref.clusterPair, clusters))
	checkMap(t, name+" host out", ds.HostOutBytes(), ref.hostOut)
	checkMap(t, name+" per minute", ds.PerMinute(), ref.perMinute)
	checkMap(t, name+" rack cross", ds.RackCrossBytes(), ref.rackCross)
	checkMap(t, name+" cluster cross", ds.ClusterCrossBytes(), ref.clusterCross)

	shareAll := map[topology.Locality]float64{}
	for _, ct := range topology.ClusterTypes {
		share := map[topology.Locality]float64{}
		for l, b := range ref.locality[ct] {
			share[l] = b / ref.byClusterType[ct]
			shareAll[l] += b / ref.totalBytes
		}
		checkMap(t, name+" locality share "+ct.String(), ds.LocalityShare(ct), share)
	}
	checkMap(t, name+" locality share all", ds.LocalityShareAll(), shareAll)
	traffic := map[topology.ClusterType]float64{}
	for ct, b := range ref.byClusterType {
		traffic[ct] = b / ref.totalBytes
	}
	checkMap(t, name+" traffic share", ds.TrafficShare(), traffic)

	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatalf("%s: save: %v", name, err)
	}
	var doc storeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: archive does not parse: %v", name, err)
	}
	wantPairs := map[string]float64{}
	for k, v := range ref.rackPair {
		wantPairs[pairKey(k[0], k[1])] = v
	}
	checkMap(t, name+" archived rack pairs", doc.RackPair, wantPairs)

	again, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	var buf2 bytes.Buffer
	if err := again.Save(&buf2); err != nil {
		t.Fatalf("%s: re-save: %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("%s: Save → Load → Save is not byte-identical", name)
	}
}

// TestDatasetMatchesFlatReference is the differential test of the
// source-rack row layout. Random records over the multi-cluster tiny
// fleet are folded record by record through Dataset.Add, and shard by
// shard — partials over disjoint source-host ranges, merged in
// (window, shard) order — through MergePartial. Both must agree bit for
// bit with the flat-map reference folded the same way.
func TestDatasetMatchesFlatReference(t *testing.T) {
	topo := testTopo(t)
	tagger := NewTagger(topo)
	r := rng.New(20150817)
	const windows, shardHosts = 3, 10 // 10-host shards straddle 6-host racks
	hosts := topo.NumHosts()

	byAdd, refAdd := NewDataset(), newRefDataset()
	byMerge, refMerge := NewDataset(), newRefDataset()
	p := NewPartial()
	for w := 0; w < windows; w++ {
		for lo := 0; lo < hosts; lo += shardHosts {
			hi := min(lo+shardHosts, hosts)
			p.Reset()
			shard := newRefDataset()
			for n := r.Intn(40); n > 0; n-- {
				src := topology.HostID(lo + r.Intn(hi-lo))
				var dst topology.HostID
				switch r.Intn(4) {
				case 0:
					dst = src
				case 1:
					rk := topo.Racks[topo.HostRack(src)]
					dst = rk.Host(r.Intn(int(rk.NumHosts)))
				default:
					dst = topology.HostID(r.Intn(hosts))
				}
				size := r.Float64() * 1e6
				if r.Intn(10) == 0 {
					size = 0
				}
				rec, ok := tagger.Flow(int64(2*w+r.Intn(3)), topo.Addr(src), topo.Addr(dst), size)
				if !ok {
					t.Fatalf("tagger rejected in-topology flow %d→%d", src, dst)
				}
				byAdd.Add(rec)
				refAdd.add(rec)
				p.Add(rec)
				shard.add(rec)
			}
			byMerge.MergePartial(p)
			refMerge.merge(shard)
		}
	}
	if len(refAdd.rackPair) < 100 || len(refAdd.clusterPair) < 20 {
		t.Fatalf("record stream too thin: %d rack pairs, %d cluster pairs", len(refAdd.rackPair), len(refAdd.clusterPair))
	}
	checkAgainstRef(t, "Add", topo, byAdd, refAdd)
	checkAgainstRef(t, "MergePartial", topo, byMerge, refMerge)
}

// benchShardHosts is the fleet collector's shard width: at the large
// preset a shard is 4 racks of 32 hosts.
const benchShardHosts = 128

// fillShard fills p with one synthetic collection cell for the shard
// starting at host lo: 31 flows per source host (the large preset's
// sampled-flow rate), a third to the source's own rack, a third to its
// cluster, the rest anywhere in the fleet.
func fillShard(b *testing.B, topo *topology.Topology, tagger *Tagger, p *Partial, window, lo int) {
	r := rng.NewKeyed(0xbe4c, uint64(window), uint64(lo))
	hi := min(lo+benchShardHosts, topo.NumHosts())
	p.Reset()
	for src := topology.HostID(lo); src < topology.HostID(hi); src++ {
		for n := 0; n < 31; n++ {
			var dst topology.HostID
			switch r.Intn(3) {
			case 0:
				rk := topo.Racks[topo.HostRack(src)]
				dst = rk.Host(r.Intn(int(rk.NumHosts)))
			case 1:
				racks := topo.Clusters[topo.HostCluster(src)].Racks
				rk := topo.Racks[racks[r.Intn(len(racks))]]
				dst = rk.Host(r.Intn(int(rk.NumHosts)))
			default:
				dst = topology.HostID(r.Intn(topo.NumHosts()))
			}
			rec, ok := tagger.Flow(int64(window), topo.Addr(src), topo.Addr(dst), 1500+r.Float64()*1e6)
			if !ok {
				b.Fatalf("tagger rejected flow %d→%d", src, dst)
			}
			p.Add(rec)
		}
	}
}

// BenchmarkDatasetMergePartial measures one collection cell's merge into
// a dataset that already holds a full large-preset window, the state of
// every merge after the first window. Cells come from the next window,
// one shard (4 source racks) each, in task order; they are built in
// batches with the timer stopped. ns/op and allocs/op are per cell.
func BenchmarkDatasetMergePartial(b *testing.B) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleLarge))
	tagger := NewTagger(topo)
	ds := NewDataset()
	p := NewPartial()
	for lo := 0; lo < topo.NumHosts(); lo += benchShardHosts {
		fillShard(b, topo, tagger, p, 0, lo)
		ds.MergePartial(p)
	}
	batch := make([]*Partial, 64)
	for i := range batch {
		batch[i] = NewPartial()
	}
	shards := (topo.NumHosts() + benchShardHosts - 1) / benchShardHosts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(batch) == 0 {
			b.StopTimer()
			for j, bp := range batch {
				cell := i + j
				fillShard(b, topo, tagger, bp, 1+cell/shards, cell%shards*benchShardHosts)
			}
			b.StartTimer()
		}
		ds.MergePartial(batch[i%len(batch)])
	}
}
