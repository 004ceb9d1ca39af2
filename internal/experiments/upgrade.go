package experiments

import (
	"fmt"

	"labstor/internal/core"
	"labstor/internal/device"
	"labstor/internal/ipc"
	"labstor/internal/mods/dummy"
	"labstor/internal/runtime"
)

// LiveUpgrade reproduces Table I, "Live upgrade overhead": an application
// sends messages to a dummy LabMod through the Runtime while the module is
// live-upgraded; the experiment varies how many upgrade requests one batch
// holds (0 / 256 / 512 / 1024) and reports the application's total running
// time for both upgrade protocols.
//
// Paper result: a single upgrade costs ~5 ms (dominated by loading the
// 1 MiB module binary from NVMe); runtime grows only when thousands of
// upgrades queue (+~5 s at 1024), and decentralized is slightly costlier
// than centralized. Either is ~5 orders of magnitude cheaper than the
// ~300 s reboot a kernel-module update needs.
func LiveUpgrade(messages int, upgradeCounts []int) (*Result, error) {
	if messages <= 0 {
		messages = 100000
	}
	if len(upgradeCounts) == 0 {
		upgradeCounts = []int{0, 256, 512, 1024}
	}

	res := &Result{Name: fmt.Sprintf("Table I: live upgrade (%d messages to a dummy LabMod)", messages)}
	header := []string{"Protocol"}
	for _, n := range upgradeCounts {
		header = append(header, fmt.Sprintf("%d upgrades (s)", n))
	}
	res.Table = newTable(header...)

	for _, mode := range []runtime.UpgradeMode{runtime.Centralized, runtime.Decentralized} {
		row := []string{mode.String()}
		for _, n := range upgradeCounts {
			secs, err := runUpgradeTrial(messages, n, mode)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", secs))
			res.V(fmt.Sprintf("%s_%d", mode, n), secs)
		}
		res.Table.AddRow(row...)
	}
	res.Notes = "virtual seconds of application runtime; each upgrade loads a 1 MiB module image from NVMe and transfers a few bytes of state"
	return res, nil
}

func runUpgradeTrial(messages, upgrades int, mode runtime.UpgradeMode) (float64, error) {
	rt := runtime.New(runtime.Options{MaxWorkers: 1, QueueDepth: 4096})
	dev := device.New("dev0", device.NVMe, 64<<20)
	rt.AddDevice(dev)
	if _, err := rt.Mount(core.NewStack("msg::/dummy", core.Rules{}, []core.Vertex{
		{UUID: "dummy0", Type: dummy.Type},
	})); err != nil {
		return 0, err
	}
	rt.Start()
	defer rt.Shutdown()

	cli := rt.Connect(ipc.Credentials{PID: 1, UID: 0, GID: 0})

	// Apply the upgrades as one batch roughly 20% into the message stream
	// (the paper triggers the upgrade ~20 s into the run). The batch's
	// modeled time advances the worker clock, so the messages after it
	// wait out the upgrade window.
	trigger := messages / 5
	for i := 0; i < messages; i++ {
		if i == trigger && upgrades > 0 {
			batch := make([]*runtime.UpgradeRequest, upgrades)
			for u := range batch {
				batch[u] = &runtime.UpgradeRequest{
					UUID:       "dummy0",
					Build:      func() core.Module { return &dummy.Dummy{} },
					Mode:       mode,
					CodeSize:   1 << 20,
					CodeDevice: "dev0",
				}
			}
			if err := rt.Upgrade(batch...); err != nil {
				return 0, err
			}
		}
		req := core.NewRequest(core.OpMessage)
		if err := cli.Submit("msg::/dummy", req); err != nil {
			return 0, err
		}
		if req.Err != nil {
			return 0, req.Err
		}
	}
	return cli.Clock().Sub(0).Seconds(), nil
}
