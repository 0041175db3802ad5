// Inception + Workspace Division: the paper motivates WD with modules
// like GoogLeNet's Inception, whose parallel branches have kernels with
// very different appetite for workspace. This example builds the
// inception(3a) module, lets WD divide a single 96 MiB budget across its
// 17 kernels via the ILP, and prints who got what — compare with giving
// every kernel the same slice (WR).
package main

import (
	"fmt"
	"log"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/zoo"
)

func main() {
	const batch = 128
	const totalMiB = 96

	// WD run.
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	inner.Mem().Cap = 0
	wdHandle, err := core.New(inner, core.WithWD(totalMiB<<20), core.WithPolicy(core.PolicyPowerOfTwo))
	if err != nil {
		log.Fatal(err)
	}
	ctx := dnn.NewContext(wdHandle, inner, core.DefaultWorkspaceLimit)
	net := zoo.InceptionModule(ctx, batch)
	wdRep, err := net.Time(3)
	if err != nil {
		log.Fatal(err)
	}
	stats := wdHandle.WDStats()
	fmt.Printf("WD over inception(3a), N=%d, %d MiB total budget\n", batch, totalMiB)
	fmt.Printf("ILP: %d binary variables, %d nodes, solved in %v\n\n",
		stats.ILPVars, stats.ILPNodes, stats.SolveTime)
	fmt.Println("assigned segments:")
	seen := map[string]bool{}
	for _, p := range stats.Plans {
		key := p.Kernel.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		fmt.Printf("  %-75s %7.1f MiB  %v\n", key, float64(p.Workspace)/(1<<20), p.Config)
	}
	fmt.Printf("total assigned: %.1f MiB, module time %v\n\n",
		float64(stats.TotalWorkspace)/(1<<20), wdRep.Total())

	// WR baseline at the same total: an equal slice per kernel.
	perKernel := int64(totalMiB) << 20 / int64(len(seen))
	inner2 := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	inner2.Mem().Cap = 0
	wrHandle, err := core.New(inner2, core.WithWorkspaceLimit(perKernel), core.WithPolicy(core.PolicyPowerOfTwo))
	if err != nil {
		log.Fatal(err)
	}
	ctx2 := dnn.NewContext(wrHandle, inner2, perKernel)
	net2 := zoo.InceptionModule(ctx2, batch)
	wrRep, err := net2.Time(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WR with equal %0.1f MiB slices: module time %v\n", float64(perKernel)/(1<<20), wrRep.Total())
	fmt.Printf("WD speedup at equal total workspace: %.2fx\n",
		float64(wrRep.Total())/float64(wdRep.Total()))
}
