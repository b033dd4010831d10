package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenFaultFS pins the exact outcome of a seeded operation
// sequence: the bytes each write lands (short writes tear a
// hash-chosen prefix), which syncs fail, the final fault counts, the
// bytes left on disk (flips included), and the torn prefix the crash
// point lands. Crash drills compare recovered
// atlases byte for byte across runs, so every one of these is load
// bearing.
func TestGoldenFaultFS(t *testing.T) {
	ffs, err := NewFaultFS(OS{}, FaultConfig{
		Seed:           5,
		ShortWriteRate: 0.3,
		SyncErrRate:    0.2,
		FlipRate:       0.2,
		CrashAtOp:      40,
	})
	if err != nil {
		t.Fatalf("fault fs: %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	f, err := ffs.Create(path) // op 1
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	got := ""
	for i := 0; i < 20; i++ {
		n, werr := f.Write(payload)
		got += fmt.Sprintf("w%d", n)
		if errors.Is(werr, ErrCrashed) {
			got += "!"
		}
		if serr := f.Sync(); serr != nil {
			got += "s"
		}
		got += " "
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	got += fmt.Sprintf("len=%d crc=%08x %+v", len(data), crc32.ChecksumIEEE(data), ffs.Stats())
	want := "w43s w43 w43 w43 w43 w43s w30 w43 w43 w38 w43 w23 w0s w5 w43s w43 w43 w28 w11 w18!s " +
		"len=669 crc=29699ec9 {ShortWrites:7 SyncErrs:4 FlippedByte:3 Crashed:true}"
	if got != want {
		t.Fatalf("fault schedule drifted:\n got %s\nwant %s", got, want)
	}
}
