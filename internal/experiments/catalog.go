// Package experiments wires the library's pieces into the paper's
// evaluation: the Amazon-EC2-style VM and PM catalogs (Tables I and
// II), quantization, rank-table registries, and one runner per paper
// table/figure.
package experiments

import (
	"fmt"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// Resource group names used by the catalogs.
const (
	GroupCPU  = "cpu"
	GroupMem  = "mem"
	GroupDisk = "disk"
)

// Quantization constants. The CPU quantum is per-PM-type (core GHz
// divided by VCPUsPerCore, matching the paper's GENI assumption that a
// physical core hosts 4 vCPUs); memory and disk quanta are global.
const (
	// VCPUsPerCore is how many quantized vCPU slots one physical core
	// provides, matching the paper's assumption that "each physical
	// CPU core can host 4 vCPUs".
	VCPUsPerCore = 4
	// MemQuantumGiB is the memory unit: the smallest Table I memory
	// demand (m3.medium / c3.large, 3.75 GiB).
	MemQuantumGiB = 3.75
	// DiskQuantumGB is the disk volume unit.
	DiskQuantumGB = 8
)

// VMTypeSpec is one row of Table I.
type VMTypeSpec struct {
	Name    string
	VCPUs   int
	VCPUGHz float64
	MemGiB  float64
	VDisks  int
	VDiskGB float64
}

// PMTypeSpec is one row of Table II.
type PMTypeSpec struct {
	Name    string
	Cores   int
	CoreGHz float64
	MemGiB  float64
	Disks   int
	DiskGB  float64
	// Power names the processor power model in internal/energy
	// (Table III column).
	Power string
}

// AmazonVMTypes returns Table I: the EC2 VM classes used throughout
// the evaluation.
func AmazonVMTypes() []VMTypeSpec {
	return []VMTypeSpec{
		{Name: "m3.medium", VCPUs: 1, VCPUGHz: 0.6, MemGiB: 3.75, VDisks: 1, VDiskGB: 4},
		{Name: "m3.large", VCPUs: 2, VCPUGHz: 0.6, MemGiB: 7.5, VDisks: 1, VDiskGB: 32},
		{Name: "m3.xlarge", VCPUs: 4, VCPUGHz: 0.6, MemGiB: 15, VDisks: 2, VDiskGB: 40},
		{Name: "m3.2xlarge", VCPUs: 8, VCPUGHz: 0.6, MemGiB: 30, VDisks: 2, VDiskGB: 80},
		{Name: "c3.large", VCPUs: 2, VCPUGHz: 0.7, MemGiB: 3.75, VDisks: 2, VDiskGB: 16},
		{Name: "c3.xlarge", VCPUs: 4, VCPUGHz: 0.7, MemGiB: 7.5, VDisks: 2, VDiskGB: 40},
	}
}

// AmazonPMTypes returns Table II: the M3 and C3 host classes.
func AmazonPMTypes() []PMTypeSpec {
	return []PMTypeSpec{
		{Name: "M3", Cores: 8, CoreGHz: 2.6, MemGiB: 64, Disks: 4, DiskGB: 250, Power: "E5-2670"},
		// Table II prints 7.5 GiB for the C3 host class — less than a
		// single m3.xlarge VM and surely a transcription slip (it
		// repeats c3.large's VM memory). We use 60 GiB, the published
		// memory of Amazon's c3-family hosts; see DESIGN.md §5.
		{Name: "C3", Cores: 8, CoreGHz: 2.8, MemGiB: 60, Disks: 4, DiskGB: 250, Power: "E5-2680"},
	}
}

// CPUQuantumGHz returns the per-core vCPU slot size of a PM type.
func (p PMTypeSpec) CPUQuantumGHz() float64 {
	return p.CoreGHz / VCPUsPerCore
}

// Shape builds the PM type's dimension layout: one dimension per
// physical core and per physical disk (the anti-collocation encoding),
// one memory dimension.
func (p PMTypeSpec) Shape() (*resource.Shape, error) {
	return resource.NewShape(
		resource.Group{Name: GroupCPU, Dims: p.Cores, Cap: VCPUsPerCore},
		resource.Group{Name: GroupMem, Dims: 1, Cap: resource.QuantizeCap(p.MemGiB, MemQuantumGiB)},
		resource.Group{Name: GroupDisk, Dims: p.Disks, Cap: resource.QuantizeCap(p.DiskGB, DiskQuantumGB)},
	)
}

// Quantize converts a Table I VM spec into integer-unit demands on a
// Table II PM type. The demand may be infeasible on the PM type (e.g.
// m3.xlarge memory exceeds a C3 host); feasibility is checked at
// placement time.
func (p PMTypeSpec) Quantize(vm VMTypeSpec) resource.VMType {
	cpuUnits := make([]int, vm.VCPUs)
	for i := range cpuUnits {
		cpuUnits[i] = resource.Quantize(vm.VCPUGHz, p.CPUQuantumGHz())
	}
	diskUnits := make([]int, vm.VDisks)
	for i := range diskUnits {
		diskUnits[i] = resource.Quantize(vm.VDiskGB, DiskQuantumGB)
	}
	return resource.NewVMType(vm.Name,
		resource.Demand{Group: GroupCPU, Units: cpuUnits},
		resource.Demand{Group: GroupMem, Units: []int{resource.Quantize(vm.MemGiB, MemQuantumGiB)}},
		resource.Demand{Group: GroupDisk, Units: diskUnits},
	)
}

// Catalog bundles the VM and PM specs with their derived shapes and
// per-PM-type quantized VM demands.
type Catalog struct {
	VMs []VMTypeSpec
	PMs []PMTypeSpec

	shapes map[string]*resource.Shape
	// reqs is vm type -> pm type -> demand, read-only after NewCatalog:
	// NewVM hands each inner map out as the VM's Req.
	reqs map[string]map[string]resource.VMType
}

// NewCatalog derives shapes and quantized demands for the given specs.
func NewCatalog(vms []VMTypeSpec, pms []PMTypeSpec) (*Catalog, error) {
	c := &Catalog{
		VMs:    vms,
		PMs:    pms,
		shapes: make(map[string]*resource.Shape, len(pms)),
		reqs:   make(map[string]map[string]resource.VMType, len(vms)),
	}
	for _, vm := range vms {
		c.reqs[vm.Name] = make(map[string]resource.VMType, len(pms))
	}
	for _, pm := range pms {
		shape, err := pm.Shape()
		if err != nil {
			return nil, fmt.Errorf("experiments: pm type %s: %w", pm.Name, err)
		}
		c.shapes[pm.Name] = shape
		for _, vm := range vms {
			c.reqs[vm.Name][pm.Name] = pm.Quantize(vm)
		}
	}
	return c, nil
}

// AmazonCatalog returns the paper's evaluation catalog (Tables I + II).
func AmazonCatalog() (*Catalog, error) {
	return NewCatalog(AmazonVMTypes(), AmazonPMTypes())
}

// VMMix is the request-frequency distribution over Table I types used
// by the workload generator. The paper only says VM types were chosen
// randomly; we use a mix weighted so that the aggregate demand is
// balanced across the CPU and memory dimensions (compute-optimized c3
// requests are common in practice), which is the regime where
// dimension-aware placement matters. The weights are documented in
// DESIGN.md and EXPERIMENTS.md.
func VMMix() map[string]float64 {
	return map[string]float64{
		"m3.medium":  0.10,
		"m3.large":   0.20,
		"m3.xlarge":  0.10,
		"m3.2xlarge": 0.10,
		"c3.large":   0.30,
		"c3.xlarge":  0.20,
	}
}

// SampleVMType draws a VM type name from VMMix using u in [0,1).
func SampleVMType(mix map[string]float64, names []string, u float64) string {
	total := 0.0
	for _, n := range names {
		total += mix[n]
	}
	target := u * total
	acc := 0.0
	for _, n := range names {
		acc += mix[n]
		if target < acc {
			return n
		}
	}
	return names[len(names)-1]
}

// Shape returns the shape of a PM type.
func (c *Catalog) Shape(pmType string) (*resource.Shape, bool) {
	s, ok := c.shapes[pmType]
	return s, ok
}

// Demand returns the quantized demand of a VM type on a PM type.
func (c *Catalog) Demand(pmType, vmType string) (resource.VMType, bool) {
	d, ok := c.reqs[vmType][pmType]
	return d, ok
}

// NewVM builds a placement request for one instance of a VM type. All
// VMs of a type share one read-only Req map (see placement.VM.Req).
func (c *Catalog) NewVM(id int, vmType string) (*placement.VM, error) {
	req, ok := c.reqs[vmType]
	if !ok || len(req) == 0 {
		return nil, fmt.Errorf("experiments: unknown vm type %q", vmType)
	}
	return &placement.VM{ID: id, Type: vmType, Req: req}, nil
}

// BuildCluster creates count PMs per PM type, in round-robin type
// order, so a heterogeneous inventory interleaves M3 and C3 hosts.
func (c *Catalog) BuildCluster(countPerType int) *placement.Cluster {
	pms := make([]*placement.PM, 0, countPerType*len(c.PMs))
	id := 0
	for i := 0; i < countPerType; i++ {
		for _, spec := range c.PMs {
			pms = append(pms, placement.NewPM(id, spec.Name, c.shapes[spec.Name]))
			id++
		}
	}
	return placement.NewCluster(pms)
}

// BuildRegistry builds one factored ranker per PM type. The factored
// ranker is the scalable default; the joint lattice of Table II hosts
// has ~10^6 canonical profiles (see DESIGN.md).
//
// Unless the caller supplies opts.Cache, the builds share a
// registry-local cache: PM types with overlapping group geometry and
// identical projected demands (Table II's M3 and C3 share the cpu and
// disk groups) then build each distinct per-group sub-table exactly
// once. Cached builds are bitwise-identical to uncached ones (see
// ranktable.Cache), so placement decisions are unaffected.
func (c *Catalog) BuildRegistry(opts ranktable.Options) (*ranktable.Registry, error) {
	if opts.Cache == nil {
		opts.Cache = ranktable.NewCache(0, opts.Obs)
	}
	reg := ranktable.NewRegistry()
	for _, pm := range c.PMs {
		var types []resource.VMType
		for _, vm := range c.VMs {
			d := c.reqs[vm.Name][pm.Name]
			// A VM type whose demand can never fit this PM type (e.g.
			// m3.xlarge memory on a C3 host) contributes no edges.
			if d.Validate(c.shapes[pm.Name]) != nil {
				continue
			}
			types = append(types, d)
		}
		ranker, err := ranktable.NewFactored(c.shapes[pm.Name], types, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: ranker for %s: %w", pm.Name, err)
		}
		reg.Add(pm.Name, ranker)
	}
	return reg, nil
}
