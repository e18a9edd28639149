package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/netstack"
	"repro/internal/units"
	"repro/internal/vmm"
)

// TestClusterAuditCoversToRFabric pins the fabric leg of the cluster
// audit: bytes still sitting in a ToR egress queue are a
// cluster-queue-drain violation, and the same cluster audits clean once
// the audit's drain has let them land.
func TestClusterAuditCoversToRFabric(t *testing.T) {
	c := cluster.New(cluster.Config{Hosts: 2, Seed: 5})
	h0, h1 := c.Host(0), c.Host(1)
	src, err := h0.Bed.AddSRIOVGuest("src", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	h0.Connect(src)
	dst, err := h1.Bed.AddSRIOVGuest("dst", vmm.HVM, vmm.Kernel2628, 0, 0, netstack.FixedITR(2000))
	if err != nil {
		t.Fatal(err)
	}
	h1.Connect(dst)
	if _, err := c.StartFlow(h0, src, h1, dst, 500*units.Mbps); err != nil {
		t.Fatal(err)
	}
	// Step until a batch is on the wire between the switch and h1.
	c.Eng.RunUntil(units.Time(10 * units.Millisecond))
	for i := 0; c.QueuedBytes() == 0; i++ {
		if i == 10000 {
			t.Fatal("no batch ever queued on the fabric")
		}
		c.Eng.RunUntil(c.Eng.Now().Add(units.Microsecond))
	}
	c.StopAll()

	found := false
	for _, v := range chaos.CheckCluster(c, nil) {
		found = found || v.Invariant == "cluster-queue-drain"
	}
	if !found {
		t.Fatalf("%v queued on the fabric but CheckCluster reported no cluster-queue-drain", c.QueuedBytes())
	}
	if vs := chaos.AuditCluster(c, nil); len(vs) != 0 {
		t.Fatalf("drained cluster still violates invariants: %v", vs)
	}
	if q := c.QueuedBytes(); q != 0 {
		t.Fatalf("%v still queued after the audit", q)
	}
}
