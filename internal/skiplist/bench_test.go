package skiplist

import (
	"fmt"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	l := New(nil, 1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i*2654435761))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(keys[i], nil, nil)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(nil, 1)
	const n = 100000
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("key%012d", i)), []byte("v"), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get([]byte(fmt.Sprintf("key%012d", i%n)), nil)
	}
}
