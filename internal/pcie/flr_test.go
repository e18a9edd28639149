package pcie

import "testing"

func TestFLRHookAndSelfClear(t *testing.T) {
	fn := NewFunction("dev", MakeRID(1, 0, 0), 0x8086, 0x10ca)
	cap := AddPCIeCap(fn.Config(), 0x40)
	if fn.Config().Read32(cap.off+PCIeDevCapOff)&PCIeDevCapFLR == 0 {
		t.Fatal("DevCap should advertise FLR")
	}
	var resets int
	fn.OnFLR = func() { resets++ }

	fn.ConfigWrite16(cap.DevCtlOffset(), PCIeDevCtlFLR)
	if resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
	if fn.Config().Read16(cap.DevCtlOffset())&PCIeDevCtlFLR != 0 {
		t.Fatal("initiate-FLR must self-clear")
	}

	// A 32-bit write covering Device Control triggers too.
	fn.ConfigWrite32(cap.off+PCIeDevCtlOff, uint32(PCIeDevCtlFLR))
	if resets != 2 {
		t.Fatalf("resets = %d, want 2", resets)
	}

	// Writes without the bit do not.
	fn.ConfigWrite16(cap.DevCtlOffset(), 0)
	fn.ConfigWrite16(cap.off+2, 0xffff)
	if resets != 2 {
		t.Fatalf("resets = %d after non-FLR writes, want 2", resets)
	}
}

func TestFLRWithoutCapability(t *testing.T) {
	fn := NewFunction("dev", MakeRID(1, 0, 1), 0x8086, 0x10ca)
	var resets int
	fn.OnFLR = func() { resets++ }
	fn.ConfigWrite16(0x48, PCIeDevCtlFLR) // no PCIe capability installed
	if resets != 0 {
		t.Fatal("FLR must require the capability")
	}
}
