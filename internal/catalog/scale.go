package catalog

import (
	"fmt"

	"netarch/internal/kb"
)

// Parameterized catalog scale-out (ROADMAP "catalog and scenario
// scale-out"): the seed generators enumerate vendor families × speed
// grades × port counts (~200 SKUs); ScaledHardware multiplies that
// matrix along a fourth axis — firmware variants — to reach 5k/20k/50k
// SKUs. Firmware revisions are how real catalogs actually balloon: the
// silicon is identical, the cost/power/feature envelope drifts a little
// per revision, and the occasional revision unlocks a capability
// (telemetry firmware enabling INT, offload firmware enabling DPDK).
// The generator is fully deterministic (a fixed multiplicative hash of
// the base SKU name seeds every perturbation), so two processes built
// from the same target size agree byte-for-byte — which the scale
// differential and the compiled-base golden test rely on.
//
// The shape of the output is deliberately dominance-heavy: most
// firmware revisions only make a SKU strictly worse (more power, more
// cost, same capabilities), mirroring the long tail of a vendor price
// list. That is the regime the core slicer's dominance pruning is built
// for, while the periodic capability or capacity upgrades guarantee the
// pruned frontier still has meaningful diversity.

// scaleSeed is a cheap deterministic string hash (FNV-1a, 64-bit) used
// to seed per-SKU perturbations. Not crypto — just stable spread.
func scaleSeed(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// cloneHardware deep-copies one SKU so variants never alias the base
// maps.
func cloneHardware(h kb.Hardware) kb.Hardware {
	v := h
	v.Caps = append([]kb.Capability(nil), h.Caps...)
	v.Quant = make(map[kb.Resource]int64, len(h.Quant))
	for k, q := range h.Quant {
		v.Quant[k] = q
	}
	if h.Attrs != nil {
		v.Attrs = make(map[string]string, len(h.Attrs))
		for k, a := range h.Attrs {
			v.Attrs[k] = a
		}
	}
	return v
}

// hasCap reports whether the variant already carries cap.
func hasCap(h *kb.Hardware, cap kb.Capability) bool {
	for _, c := range h.Caps {
		if c == cap {
			return true
		}
	}
	return false
}

// firmwareVariant derives revision rev of a base SKU. Revisions drift
// cost and power upward by a small seed-dependent amount; every 7th
// (seed-offset) revision instead improves a capacity, and every 11th
// unlocks a kind-appropriate capability, so later firmware is not
// uniformly dominated.
func firmwareVariant(base kb.Hardware, rev int) kb.Hardware {
	v := cloneHardware(base)
	v.Name = fmt.Sprintf("%s fw%d", base.Name, rev)
	seed := scaleSeed(v.Name)
	v.CostUSD += int64(seed%13) * 15
	v.Quant[kb.ResPowerW] += int64(seed % 9)
	if v.Attrs == nil {
		v.Attrs = map[string]string{}
	}
	v.Attrs["firmware"] = fmt.Sprintf("rev%d", rev)
	switch (seed + uint64(rev)) % 11 {
	case 3: // capacity upgrade: strictly better on one axis
		switch base.Kind {
		case kb.KindSwitch:
			v.Quant[kb.ResBufferMB] += 16
		case kb.KindNIC:
			v.Quant[kb.ResBandwidthGbps] += 25
		case kb.KindServer:
			v.Quant[kb.ResMemoryGB] += 128
		}
	case 7: // feature unlock: new capability (new dominance group)
		switch base.Kind {
		case kb.KindSwitch:
			if !hasCap(&v, kb.CapINT) {
				v.Caps = append(v.Caps, kb.CapINT)
				v.CostUSD += 900
			}
		case kb.KindNIC:
			if !hasCap(&v, kb.CapDPDK) {
				v.Caps = append(v.Caps, kb.CapDPDK)
				v.CostUSD += 120
			}
		case kb.KindServer:
			if !hasCap(&v, kb.CapCXL) {
				v.Caps = append(v.Caps, kb.CapCXL)
				v.CostUSD += 600
			}
		}
	}
	return v
}

// ScaledHardware grows the seed catalog to at least total SKUs by
// stamping firmware revisions over every base SKU in round-robin order
// (rev 1 of everything, then rev 2, ...), preserving the seed catalog
// as an exact prefix. Deterministic: same total, same bytes.
func ScaledHardware(total int) []kb.Hardware {
	base := Hardware()
	out := make([]kb.Hardware, 0, total)
	out = append(out, base...)
	for rev := 1; len(out) < total; rev++ {
		for _, h := range base {
			if len(out) >= total {
				break
			}
			out = append(out, firmwareVariant(h, rev))
		}
	}
	return out
}

// ScaledWorkloads derives ~24 workload profiles from the three
// hand-written case-study workloads by sweeping deployment scale and
// need mixes — the "dozens of workload profiles" axis of the scale-out.
// Profiles are deterministic and named wl_<seed>_<i>.
func ScaledWorkloads() []kb.Workload {
	seeds := []kb.Workload{
		InferenceWorkload(),
		BatchAnalyticsWorkload(),
		StorageWorkload(),
	}
	extraNeeds := [][]kb.Property{
		nil,
		{PropFlowTelemetry},
		{PropTailLatency},
		{PropBwAllocation, PropQueueLengths},
		{PropLowLatTransport},
		{PropLoadBalancing, PropFlowTelemetry},
		{PropReliableTransport},
	}
	out := make([]kb.Workload, 0, len(seeds)*(len(extraNeeds)+1))
	out = append(out, seeds...)
	for si, s := range seeds {
		for vi, extra := range extraNeeds {
			scale := int64(1 + (si+vi)%3)
			w := kb.Workload{
				Name:              fmt.Sprintf("wl_%s_%d", s.Name, vi),
				Properties:        append([]string(nil), s.Properties...),
				DeployedAt:        append([]string(nil), s.DeployedAt...),
				PeakCores:         s.PeakCores * scale / 2,
				PeakMemoryGB:      s.PeakMemoryGB * scale / 2,
				PeakBandwidthGbps: s.PeakBandwidthGbps,
				KFlows:            s.KFlows * scale,
				Needs:             append([]kb.Property(nil), s.Needs...),
			}
			for _, p := range extra {
				dup := false
				for _, have := range w.Needs {
					if have == p {
						dup = true
					}
				}
				if !dup {
					w.Needs = append(w.Needs, p)
				}
			}
			out = append(out, w)
		}
	}
	return out
}

// ScaledCatalog is the full scale-out knowledge base: the seed systems,
// rules and orders over a firmware-scaled hardware matrix of at least
// total SKUs, with the ~24 derived workload profiles attached. This is
// the corpus the scale differential and the 5k/20k/50k benchmark tiers
// run against.
func ScaledCatalog(total int) *kb.KB {
	k := Default()
	k.Hardware = ScaledHardware(total)
	k.Workloads = ScaledWorkloads()
	return k
}
