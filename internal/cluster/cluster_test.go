package cluster

import (
	"reflect"
	"strings"
	"testing"
)

// twoNodeIB returns a small 2-node test cluster: 4 NVLink devices per node,
// an IB fabric between the nodes.
func twoNodeIB() Cluster {
	return uniformCluster("test-2xIB", "A800", 2, 4,
		Link{Class: ClassNVLink, GBps: 200, LatencySec: 6e-6},
		Link{Class: ClassIB, GBps: 46, LatencySec: 14e-6})
}

func TestClusterValidateAndIndexing(t *testing.T) {
	c := twoNodeIB()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Devices(); got != 8 {
		t.Fatalf("Devices = %d, want 8", got)
	}
	for dev, wantNode := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if got := c.NodeOf(dev); got != wantNode {
			t.Errorf("NodeOf(%d) = %d, want %d", dev, got, wantNode)
		}
	}
	if got := c.NodeOf(8); got != -1 {
		t.Errorf("NodeOf(8) = %d, want -1", got)
	}
	if l := c.LinkBetween(0, 3); l.Class != ClassNVLink {
		t.Errorf("intra-node link class = %s, want nvlink", l.Class)
	}
	if l := c.LinkBetween(3, 4); l.Class != ClassIB {
		t.Errorf("inter-node link class = %s, want ib", l.Class)
	}
	if got := c.Classes(); !reflect.DeepEqual(got, []LinkClass{ClassIB, ClassNVLink}) {
		t.Errorf("Classes = %v", got)
	}

	bad := c
	bad.Nodes = append([]Node(nil), c.Nodes...)
	bad.Nodes[1].Devices = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-device node validated")
	}
	bad = c
	bad.Inter = Link{}
	if err := bad.Validate(); err == nil {
		t.Error("multi-node cluster with no inter link validated")
	}
}

func TestPresets(t *testing.T) {
	for _, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s: %v", c.Name, err)
		}
		got, ok := PresetByName(strings.ToLower(c.Name))
		if !ok || got.Name != c.Name {
			t.Errorf("PresetByName(%q) failed", strings.ToLower(c.Name))
		}
	}
	if _, ok := PresetByName("no-such-cluster"); ok {
		t.Error("unknown preset resolved")
	}
	if !strings.Contains(PresetListing(), "DGX-A800x4") {
		t.Error("PresetListing misses DGX-A800x4")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := `{
		"name": "custom",
		"gpu": "A800",
		"nodes": [
			{"devices": 2, "intra": {"class": "nvlink", "gbps": 200, "latency_sec": 6e-6}},
			{"devices": 2, "intra": {"class": "pcie", "gbps": 24, "latency_sec": 4e-6}}
		],
		"inter": {"class": "ib", "gbps": 46, "latency_sec": 14e-6}
	}`
	c, err := FromJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Devices() != 4 || c.Nodes[1].Intra.Class != ClassPCIe {
		t.Fatalf("decoded cluster wrong: %+v", c)
	}
	if _, err := FromJSON(strings.NewReader(`{"name":"x","nodes":[],"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"name":"x","nodes":[{"devices":1}]}`)); err != nil {
		t.Errorf("single-device single-node cluster rejected: %v", err)
	}
}

func TestContiguousAndRoundRobin(t *testing.T) {
	c := twoNodeIB()
	cont, err := Contiguous(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(cont.Devices, want) {
		t.Errorf("contiguous = %v, want %v", cont.Devices, want)
	}
	rr, err := RoundRobin(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 4, 1, 5, 2, 6, 3, 7}; !reflect.DeepEqual(rr.Devices, want) {
		t.Errorf("roundrobin = %v, want %v", rr.Devices, want)
	}
	for _, p := range []Placement{cont, rr} {
		if err := p.Validate(c); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if _, err := Contiguous(c, 9); err == nil {
		t.Error("9 stages placed on 8 devices")
	}
	if err := (Placement{Devices: []int{0, 0}}).Validate(c); err == nil {
		t.Error("shared device validated")
	}
	if err := (Placement{Devices: []int{0, 99}}).Validate(c); err == nil {
		t.Error("out-of-range device validated")
	}
}

// neighbourTraffic builds the pipeline-shaped traffic matrix: heavy traffic
// between adjacent stages, nothing elsewhere.
func neighbourTraffic(stages int, bytes int64) [][]int64 {
	m := make([][]int64, stages)
	for i := range m {
		m[i] = make([]int64, stages)
	}
	for i := 0; i+1 < stages; i++ {
		m[i][i+1] = bytes
		m[i+1][i] = bytes
	}
	return m
}

func TestGreedyBeatsRoundRobinOnNeighbourTraffic(t *testing.T) {
	c := twoNodeIB()
	traffic := neighbourTraffic(8, 1<<30)
	greedy, err := Greedy(c, 8, traffic, SearchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobin(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Contiguous(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	gc, rc, cc := greedy.Cost(c, traffic), rr.Cost(c, traffic), cont.Cost(c, traffic)
	if gc >= rc {
		t.Errorf("greedy cost %g not below roundrobin %g", gc, rc)
	}
	// Neighbour-only traffic makes contiguous optimal (one IB crossing);
	// greedy must match it.
	if gc > cc {
		t.Errorf("greedy cost %g above contiguous %g", gc, cc)
	}
}

func TestGreedyDeterministicUnderSeed(t *testing.T) {
	c := twoNodeIB()
	// An irregular traffic matrix so the local search has real work.
	traffic := neighbourTraffic(8, 1<<28)
	traffic[0][5] = 3 << 28
	traffic[2][7] = 2 << 28
	traffic[6][1] = 1 << 29
	a, err := Greedy(c, 8, traffic, SearchOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(c, 8, traffic, SearchOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Devices, b.Devices) {
		t.Errorf("same seed, different placements: %v vs %v", a.Devices, b.Devices)
	}
}

func TestGenerateAndStrategyNames(t *testing.T) {
	c := twoNodeIB()
	for _, name := range []string{"Contiguous", "ROUNDROBIN", "greedy"} {
		p, err := Generate(name, c, 4, nil, SearchOptions{})
		if err != nil {
			t.Errorf("Generate(%q): %v", name, err)
			continue
		}
		if err := p.Validate(c); err != nil {
			t.Errorf("Generate(%q) invalid: %v", name, err)
		}
	}
	if _, err := Generate("nope", c, 4, nil, SearchOptions{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestPerturbParseAndValidate(t *testing.T) {
	c := twoNodeIB()
	p, err := ParsePerturb("slow=3x2.0,link=ibx0.5,jitter=0.1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.SlowDevice != 3 || p.SlowFactor != 2.0 || p.DegradeClass != ClassIB ||
		p.DegradeFactor != 0.5 || p.Jitter != 0.1 || p.Seed != 7 {
		t.Fatalf("parsed perturb wrong: %+v", p)
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	zero, err := ParsePerturb("")
	if err != nil || !zero.Zero() {
		t.Fatalf("empty perturb: %+v err %v", zero, err)
	}
	for _, bad := range []string{"slow=9x2.0", "slow=3x0.5", "link=ethernetx0.5", "link=ibx0", "jitter=-1"} {
		p, err := ParsePerturb(bad)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if err := p.Validate(c); err == nil {
			t.Errorf("perturb %q validated", bad)
		}
	}
	// Non-finite factors parse (strconv.ParseFloat accepts them) but must
	// fail validation with an error naming the clause.
	for bad, clause := range map[string]string{
		"link=ibxNaN":               "link",
		"link=ibx+Inf":              "link",
		"jitter=+Inf":               "jitter",
		"jitter=NaN":                "jitter",
		"jitter=-Inf":               "jitter",
		"slow=3xNaN":                "slow",
		"slow=3x+Inf":               "slow",
		"slow=3x1e300,jitter=1e300": "jitter",
	} {
		p, err := ParsePerturb(bad)
		if err != nil {
			t.Errorf("perturb %q: parse error %v, want a validation error", bad, err)
			continue
		}
		if err := p.Validate(c); err == nil || !strings.Contains(err.Error(), clause) {
			t.Errorf("perturb %q: validation error %v, want one naming %q", bad, err, clause)
		}
	}
	for _, malformed := range []string{"slow=3", "bogus=1", "jitter=x", "slow=ax2", "link=x0.5"} {
		if _, err := ParsePerturb(malformed); err == nil {
			t.Errorf("perturb %q parsed", malformed)
		}
	}
}

func TestResolveLinksAndFactors(t *testing.T) {
	c := twoNodeIB()
	cont, _ := Contiguous(c, 8)
	topo, err := Resolve(c, cont, Perturb{SlowDevice: 2, SlowFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stages 0..3 on node 0, 4..7 on node 1.
	if bps, lat, class := topo.Link(0, 1); class != ClassNVLink || bps != 200e9 || lat != 6e-6 {
		t.Errorf("intra link = %g B/s %g s %s", bps, lat, class)
	}
	if bps, lat, class := topo.Link(3, 4); class != ClassIB || bps != 46e9 || lat != 14e-6 {
		t.Errorf("inter link = %g B/s %g s %s", bps, lat, class)
	}
	for stage, want := range []float64{1, 1, 2, 1, 1, 1, 1, 1} {
		if got := topo.ComputeFactor(stage); got != want {
			t.Errorf("ComputeFactor(%d) = %g, want %g", stage, got, want)
		}
	}
	if err := topo.CheckStages(4); err == nil {
		t.Error("stage-count mismatch accepted")
	}

	// Degraded IB halves only the inter-node bandwidth.
	degraded, err := Resolve(c, cont, Perturb{SlowDevice: -1, DegradeClass: ClassIB, DegradeFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if bps, _, _ := degraded.Link(3, 4); bps != 23e9 {
		t.Errorf("degraded inter bandwidth = %g, want 23e9", bps)
	}
	if bps, _, _ := degraded.Link(0, 1); bps != 200e9 {
		t.Errorf("degraded run changed intra bandwidth: %g", bps)
	}

	// Jitter is deterministic from the seed and bounded by the amplitude.
	j1, err := Resolve(c, cont, Perturb{SlowDevice: -1, Jitter: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := Resolve(c, cont, Perturb{SlowDevice: -1, Jitter: 0.1, Seed: 9})
	for s := 0; s < 8; s++ {
		f := j1.ComputeFactor(s)
		if f < 1 || f > 1.1 {
			t.Errorf("jitter factor %g out of [1, 1.1]", f)
		}
		if f != j2.ComputeFactor(s) {
			t.Errorf("jitter not deterministic at stage %d", s)
		}
	}
}
