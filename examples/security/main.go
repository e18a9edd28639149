// Security: the §4.3 isolation story, exercised end to end. It opens with
// the hardware the guests are handed — the PCIe topology, each PF's SR-IOV
// capability, the VFs' config spaces and IOMMU contexts (the testbed of the
// paper's Figs. 1–5). SR-IOV hands a guest raw hardware, so these mechanisms
// keep it contained:
//
//  1. the IOMMU rejects DMA outside the guest's own memory,
//  2. ACS redirect closes the peer-to-peer MMIO hole between VFs under one
//     switch,
//  3. the IOVM's virtual config space blocks writes to host-owned registers,
//  4. the PF driver polices mailbox requests and can shut a malicious VF
//     down entirely.
package main

import (
	"fmt"

	sriov "repro"
	"repro/internal/nic"
	"repro/internal/pcie"
)

func main() {
	tb := sriov.NewTestbed(sriov.Config{Ports: 2, Opts: sriov.AllOptimizations})
	attacker, err := tb.AddSRIOVGuest("attacker", sriov.HVM, sriov.Kernel2628, 0, 0, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	victim, err := tb.AddSRIOVGuest("victim", sriov.HVM, sriov.Kernel2628, 1, 0, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	atkFn := attacker.VF.Queue().Function()
	vicFn := victim.VF.Queue().Function()

	describeTestbed(tb)

	fmt.Println("== 1. IOMMU: DMA outside the guest's memory faults ==")
	// The attacker programs a DMA far beyond its 128 MiB allocation.
	route := tb.Fabric.RouteDMA(atkFn, 8<<30, true)
	fmt.Printf("DMA to 8 GiB: blocked=%v (%s)\n", route.Blocked, route.BlockReason)
	fmt.Printf("IOMMU fault count: %d\n\n", tb.IOMMU.Counters.Get("faults"))

	fmt.Println("== 2. ACS: the peer-to-peer MMIO hole ==")
	target := vicFn.BAR(0) + 0x10
	route = tb.Fabric.RouteDMA(atkFn, target, true)
	fmt.Printf("redirect OFF: attacker VF → victim VF MMIO: bypassedIOMMU=%v blocked=%v\n",
		route.BypassedIOMMU, route.Blocked)
	if acs, ok := atkFn.Port().ACS(); ok {
		acs.SetRedirect(true)
		route = tb.Fabric.RouteDMA(atkFn, target, true)
		fmt.Printf("redirect ON : attacker VF → victim VF MMIO: bypassedIOMMU=%v blocked=%v (%s)\n\n",
			route.BypassedIOMMU, route.Blocked, route.BlockReason)
	}

	fmt.Println("== 3. IOVM: host-owned config registers are read-only ==")
	vc, err := tb.HV.IOVMgr().Expose(attacker.Dom, atkFn)
	if err != nil {
		panic(err)
	}
	vc.Write16(pcie.RegVendorID, 0xdead)
	vc.Write32(pcie.RegBAR0, 0xdeadbeef)
	fmt.Printf("guest wrote VendorID and BAR0: blocked writes = %d; device still %#04x/%#x\n\n",
		vc.BlockedWrites, atkFn.Config().Read16(pcie.RegVendorID), atkFn.BAR(0))

	fmt.Println("== 4. PF driver: mailbox policing and VF shutdown ==")
	// The attacker tries to steal the victim's MAC... on its own port the
	// MAC isn't taken, so demonstrate with a second guest on port 0.
	second, err := tb.AddSRIOVGuest("second", sriov.HVM, sriov.Kernel2628, 0, 1, sriov.DefaultAIC())
	if err != nil {
		panic(err)
	}
	// Let the drivers' own mailbox traffic settle first.
	tb.Eng.RunUntil(tb.Eng.Now().Add(10 * sriov.Millisecond))
	// Spoof: attacker re-requests the second guest's MAC over the mailbox.
	if err := tb.Ports[0].Mailbox().SendToPF(nic.Message{Kind: nic.MsgSetMAC, VF: 0, Arg: uint64(second.MAC)}); err != nil {
		panic(err)
	}
	tb.Eng.RunUntil(tb.Eng.Now().Add(10 * sriov.Millisecond))
	fmt.Printf("MAC spoof attempt: PF driver nacked %d request(s)\n", tb.PFs[0].Nacked)

	// The PF driver decides the attacker is hostile and shuts its VF down.
	tb.PFs[0].ShutdownVF(0)
	tb.Eng.RunUntil(tb.Eng.Now().Add(10 * sriov.Millisecond))
	tb.StartUDP(attacker, sriov.LineRateUDP)
	tb.Eng.RunUntil(tb.Eng.Now().Add(100 * sriov.Millisecond))
	tb.StopAll()
	fmt.Printf("after ShutdownVF: attacker received %d packets (traffic no longer classifies)\n",
		attacker.Recv.Stats.AppPackets)

	fmt.Println("\n== 5. Interrupt remapping: forged MSIs are rejected ==")
	// Find the victim's vector in the remap table and forge a message from
	// the attacker's requester ID.
	for v := 32; v < 256; v++ {
		if e, ok := tb.IOMMU.IRTEFor(uint8(v)); ok && e.RID == uint16(vicFn.RID()) {
			err := tb.IOMMU.ValidateMSI(uint16(atkFn.RID()), uint8(v))
			fmt.Printf("attacker forges victim's vector %d: %v\n", v, err)
			break
		}
	}
	fmt.Printf("blocked interrupt messages: %d\n", tb.IOMMU.Counters.Get("msi_blocked"))
	fmt.Println("\nAll five containment mechanisms held.")
}

// describeTestbed prints the fabric topology, each PF's SR-IOV capability,
// and every enabled VF's config-space identity, BAR, MSI capability and
// IOMMU domain (set for the VFs assigned to a guest).
func describeTestbed(tb *sriov.Testbed) {
	fmt.Println("== PCIe topology ==")
	fmt.Print(tb.Fabric.Describe())

	fmt.Println("\n== SR-IOV capabilities ==")
	for _, p := range tb.Ports {
		pf := p.PF()
		cap, ok := pcie.SRIOVCapAt(pf.Config())
		if !ok {
			continue
		}
		fmt.Printf("%s: TotalVFs=%d NumVFs=%d VFEnable=%v FirstVFOffset=%d VFStride=%d VFDeviceID=%#04x\n",
			pf, cap.TotalVFs(), cap.NumVFs(), cap.VFEnabled(),
			cap.FirstVFOffset(), cap.VFStride(), cap.VFDeviceID())
	}

	fmt.Println("\n== VF functions (config space) ==")
	for _, fn := range tb.Fabric.Functions() {
		if !fn.IsVF() || !fn.Config().Present() {
			continue
		}
		msi := "-"
		if m, ok := pcie.MSICapAt(fn.Config()); ok {
			msi = fmt.Sprintf("MSI@%#x", m.Offset())
		}
		attached := ""
		if dom, ok := tb.IOMMU.DomainOf(uint16(fn.RID())); ok {
			attached = fmt.Sprintf("  iommu-domain=%d", dom)
		}
		fmt.Printf("%-22s vendor=%#04x device=%#04x BAR0=%#x %s%s\n",
			fn.String(), fn.Config().Read16(pcie.RegVendorID),
			fn.Config().Read16(pcie.RegDeviceID), fn.BAR(0), msi, attached)
	}
	fmt.Println()
}
