package cluster

import (
	"math"
	"testing"
)

// FuzzParsePerturb feeds arbitrary -perturb strings to ParsePerturb. Parsing
// must never panic, and a perturbation that parses and validates on a preset
// must resolve under contiguous placement over every device to a usable
// topology: finite, positive bandwidth on every stage-pair and intra-node
// link, and finite compute factors of at least 1.
func FuzzParsePerturb(f *testing.F) {
	for _, seed := range []string{
		"", "slow=3x1.5", "link=ibx0.5", "link=nvlinkx0.15", "slow=5x2.0",
		"jitter=0.05,seed=7", "slow=3x2.0,link=ibx0.5,jitter=0.05,seed=7",
		"link=ibxNaN", "jitter=+Inf", "slow=3x1e300,jitter=1e300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePerturb(s)
		if err != nil {
			return
		}
		for _, c := range Presets() {
			if p.Validate(c) != nil {
				continue
			}
			place, err := Contiguous(c, c.Devices())
			if err != nil {
				t.Fatal(err)
			}
			topo, err := Resolve(c, place, p)
			if err != nil {
				t.Fatalf("%q on %s validated but does not resolve: %v", s, c.Name, err)
			}
			usable := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
			for i := 0; i < topo.Stages(); i++ {
				if f := topo.ComputeFactor(i); !(f >= 1) || math.IsInf(f, 0) {
					t.Fatalf("%q on %s: stage %d compute factor %g", s, c.Name, i, f)
				}
				if l := topo.IntraLink(i); !usable(l.GBps) {
					t.Fatalf("%q on %s: stage %d intra-node link %g GB/s", s, c.Name, i, l.GBps)
				}
				for j := 0; j < topo.Stages(); j++ {
					if bps, _, _ := topo.Link(i, j); i != j && !usable(bps) {
						t.Fatalf("%q on %s: link %d->%d %g B/s", s, c.Name, i, j, bps)
					}
				}
			}
		}
	})
}
