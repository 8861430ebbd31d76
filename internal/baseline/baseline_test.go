package baseline

import (
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
)

func TestVariantSuffixes(t *testing.T) {
	if Vanilla.Suffix() != "" || WithoutFlush.Suffix() != "-w/o-flush" || CacheSegments.Suffix() != "-cache" {
		t.Fatal("variant suffixes wrong")
	}
}

func TestReservePartition(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	// Non-cache variants use the shared partition and reserve nothing.
	p, err := reservePartition(m, Vanilla, 12<<20)
	if err != nil || p != cache.DefaultPartition {
		t.Fatalf("Vanilla: %v, %v", p, err)
	}
	p, err = reservePartition(m, CacheSegments, 12<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p == cache.DefaultPartition {
		t.Fatal("cache variant did not pin a partition")
	}
	// Impossible reservations fail cleanly.
	if _, err := reservePartition(m, CacheSegments, 1<<30); err == nil {
		t.Fatal("oversized reservation accepted")
	}
}
