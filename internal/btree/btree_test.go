package btree

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("fresh tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Get([]byte("x"), nil); ok {
		t.Fatal("Get on empty tree found something")
	}
}

func TestInsertGetManySplits(t *testing.T) {
	tr := New()
	const n = 20000 // forces multiple levels of splits at order 64
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%08d", (i*2654435761)%n))
		tr.Insert(k, []byte(fmt.Sprintf("v%d", i)), nil)
	}
	if tr.Height() < 3 {
		t.Fatalf("expected height >= 3 after %d inserts, got %d", n, tr.Height())
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%08d", i))
		if _, ok := tr.Get(k, nil); !ok {
			t.Fatalf("missing %s", k)
		}
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New()
	tr.Insert([]byte("k"), []byte("v1"), nil)
	tr.Insert([]byte("k"), []byte("v2"), nil)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	v, _ := tr.Get([]byte("k"), nil)
	if string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
}

func TestChargeFunc(t *testing.T) {
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%08d", i)), nil, nil)
	}
	var visits int
	tr.Get([]byte("k00005000"), func(n int) { visits = n })
	if visits < 2 || visits > 6 {
		t.Fatalf("visits = %d, want small (height is %d)", visits, tr.Height())
	}
}

func TestPropertyMatchesModel(t *testing.T) {
	f := func(ops []struct {
		Key uint16
		Val uint8
	}) bool {
		tr := New()
		model := map[string][]byte{}
		for _, op := range ops {
			k := []byte(fmt.Sprintf("k%05d", op.Key))
			v := []byte{op.Val}
			tr.Insert(k, v, nil)
			model[string(k)] = v
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k), nil)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialAndReverseInsert(t *testing.T) {
	// Sequential and reverse insertion are the degenerate split patterns.
	for name, gen := range map[string]func(i int) int{
		"ascending":  func(i int) int { return i },
		"descending": func(i int) int { return 9999 - i },
	} {
		tr := New()
		for i := 0; i < 10000; i++ {
			tr.Insert([]byte(fmt.Sprintf("k%05d", gen(i))), []byte("v"), nil)
		}
		if tr.Len() != 10000 {
			t.Fatalf("%s: Len = %d", name, tr.Len())
		}
		for i := 0; i < 10000; i++ {
			if _, ok := tr.Get([]byte(fmt.Sprintf("k%05d", i)), nil); !ok {
				t.Fatalf("%s: k%05d missing", name, i)
			}
		}
	}
}
