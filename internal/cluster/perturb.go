package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Perturb injects faults and stragglers into a resolved topology: one slow
// device, one degraded link class, and per-iteration compute jitter. The
// zero value perturbs nothing.
type Perturb struct {
	// SlowDevice is the global device id of a straggler; compute on the
	// stage placed there is stretched by SlowFactor. Negative or absent (with
	// the zero value 0 meaning device 0 only when SlowFactor > 1) disables.
	SlowDevice int `json:"slow_device"`
	// SlowFactor multiplies the straggler's compute durations; values <= 1
	// disable the straggler.
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// DegradeClass names the link class to degrade ("ib", "nvlink", ...).
	DegradeClass LinkClass `json:"degrade_class,omitempty"`
	// DegradeFactor multiplies the degraded class's bandwidth; must be in
	// (0, 1] when DegradeClass is set (0.5 = half bandwidth).
	DegradeFactor float64 `json:"degrade_factor,omitempty"`
	// Jitter is the amplitude of per-iteration compute noise: each stage's
	// compute is stretched by an independent factor drawn uniformly from
	// [1, 1+Jitter], deterministically from Seed.
	Jitter float64 `json:"jitter,omitempty"`
	// Seed drives the jitter draws; the same seed reproduces the iteration.
	Seed uint64 `json:"seed,omitempty"`
}

// Zero reports whether the perturbation changes nothing.
func (p Perturb) Zero() bool {
	return p.SlowFactor <= 1 && p.DegradeClass == "" && p.Jitter == 0
}

// Apply returns the link as the perturbation would leave it: bandwidth
// scaled by DegradeFactor when the link's class matches the degraded one,
// unchanged otherwise. Placement search prices candidate links through this,
// so a search under a degraded fabric avoids what the fault broke.
func (p Perturb) Apply(l Link) Link {
	if p.DegradeClass != "" && l.Class == p.DegradeClass {
		l.GBps *= p.DegradeFactor
	}
	return l
}

// Validate reports an error when the perturbation is not meaningful on the
// cluster.
func (p Perturb) Validate(c Cluster) error {
	// Every comparison below is false for NaN, and an infinite factor makes
	// a free link or an infinite iteration, so non-finite values stop here.
	for _, f := range []struct {
		clause string
		v      float64
	}{{"slow", p.SlowFactor}, {"link", p.DegradeFactor}, {"jitter", p.Jitter}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cluster: perturb %s factor must be finite, got %g", f.clause, f.v)
		}
	}
	if math.IsInf(max(p.SlowFactor, 1)*(1+p.Jitter), 0) {
		return fmt.Errorf("cluster: perturb slow factor %g with jitter %g overflows the compute stretch",
			p.SlowFactor, p.Jitter)
	}
	if p.SlowFactor > 1 {
		if p.SlowDevice < 0 || p.SlowDevice >= c.Devices() {
			return fmt.Errorf("cluster: perturb slow device %d out of range on %s (%d devices)",
				p.SlowDevice, c.Name, c.Devices())
		}
	}
	if p.SlowFactor < 0 {
		return fmt.Errorf("cluster: perturb slow factor must be non-negative, got %g", p.SlowFactor)
	}
	if p.SlowFactor > 0 && p.SlowFactor < 1 {
		// A factor below 1 would speed the device up, which is surely a
		// mistake (exactly 1 is an explicit no-op baseline).
		return fmt.Errorf("cluster: perturb slow factor must be >= 1, got %g (slow stretches compute; use link=<class>x<factor> to degrade bandwidth)", p.SlowFactor)
	}
	if p.DegradeClass != "" {
		if p.DegradeFactor <= 0 || p.DegradeFactor > 1 {
			return fmt.Errorf("cluster: perturb degrade factor must be in (0,1], got %g", p.DegradeFactor)
		}
		found := false
		for _, class := range c.Classes() {
			if class == p.DegradeClass {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("cluster: perturb degrades %q but %s has no such link class",
				p.DegradeClass, c.Name)
		}
	}
	if p.Jitter < 0 {
		return fmt.Errorf("cluster: perturb jitter must be non-negative, got %g", p.Jitter)
	}
	return nil
}

// String renders the active perturbations in the flag syntax Parse accepts.
func (p Perturb) String() string {
	var parts []string
	if p.SlowFactor > 1 {
		parts = append(parts, fmt.Sprintf("slow=%dx%g", p.SlowDevice, p.SlowFactor))
	}
	if p.DegradeClass != "" {
		parts = append(parts, fmt.Sprintf("link=%sx%g", p.DegradeClass, p.DegradeFactor))
	}
	if p.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%g", p.Jitter))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePerturb parses the -perturb flag syntax: comma-separated clauses
//
//	slow=<device>x<factor>   straggler: device's compute stretched by factor
//	link=<class>x<factor>    degraded link class: bandwidth multiplied by factor
//	jitter=<fraction>        per-stage compute noise amplitude
//	seed=<n>                 jitter seed
//
// e.g. "slow=3x2.0,link=ib:0.5" is written "slow=3x2.0,link=ibx0.5". An
// empty string returns the zero perturbation.
func ParsePerturb(s string) (Perturb, error) {
	var p Perturb
	p.SlowDevice = -1
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Perturb{}, fmt.Errorf("cluster: perturb clause %q is not key=value", clause)
		}
		switch key {
		case "slow":
			dev, factor, ok := strings.Cut(val, "x")
			if !ok {
				return Perturb{}, fmt.Errorf("cluster: perturb slow wants <device>x<factor>, got %q", val)
			}
			d, err := strconv.Atoi(dev)
			if err != nil {
				return Perturb{}, fmt.Errorf("cluster: perturb slow device %q: %w", dev, err)
			}
			f, err := strconv.ParseFloat(factor, 64)
			if err != nil {
				return Perturb{}, fmt.Errorf("cluster: perturb slow factor %q: %w", factor, err)
			}
			p.SlowDevice, p.SlowFactor = d, f
		case "link":
			class, factor, ok := strings.Cut(val, "x")
			if !ok || class == "" {
				return Perturb{}, fmt.Errorf("cluster: perturb link wants <class>x<factor>, got %q", val)
			}
			f, err := strconv.ParseFloat(factor, 64)
			if err != nil {
				return Perturb{}, fmt.Errorf("cluster: perturb link factor %q: %w", factor, err)
			}
			p.DegradeClass, p.DegradeFactor = LinkClass(class), f
		case "jitter":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Perturb{}, fmt.Errorf("cluster: perturb jitter %q: %w", val, err)
			}
			p.Jitter = f
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Perturb{}, fmt.Errorf("cluster: perturb seed %q: %w", val, err)
			}
			p.Seed = n
		default:
			return Perturb{}, fmt.Errorf("cluster: unknown perturb clause %q (slow, link, jitter, seed)", key)
		}
	}
	return p, nil
}
