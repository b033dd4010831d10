package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/fm"
	"repro/internal/store"
)

// buildAtlas writes the seeded atlas into dir with mapd's store options
// over atlasFS. It runs in a child process (see spawnAtlasBuild)
// so neither its time nor its memory enters the measured process.
func buildAtlas(dir string, seed int64) error {
	maps, err := atlasMappings(seed)
	if err != nil {
		return err
	}
	st, err := store.Open(atlasFS{}, dir, store.Options{})
	if err != nil {
		return err
	}
	for _, m := range maps {
		cost, err := fm.Evaluate(m.gd.g, m.sched, m.gd.ftgt, fm.EvalOptions{})
		if err != nil {
			st.Close()
			return fmt.Errorf("atlas mapping on %s: %w", m.gd.rec.Name, err)
		}
		if _, err := st.Put(m.gd.g.Fingerprint(), m.gd.ftgt, m.sched, cost); err != nil {
			st.Close()
			return err
		}
	}
	if n := st.Len(); n != atlasRecords {
		st.Close()
		return fmt.Errorf("atlas holds %d records, want %d", n, atlasRecords)
	}
	return st.Close()
}

// spawnAtlasBuild builds the atlas for seed into dir in a child process
// and waits for it.
func spawnAtlasBuild(dir string, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-build-atlas", dir, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("atlas build: %w", err)
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// atlasFS stands in for memory-backed temp space such as /dev/shm, where
// fsync returns at once: every byte goes through the kernel as with
// store.OS, and the store still calls Sync after every put, but the
// device flush is skipped. The benchmark writes only inside its
// checkout, which sits on a shared disk whose fsync latency would
// otherwise dominate eval-cold's spread (a run appends a few hundred MB).
type atlasFS struct{ store.OS }

// noFlushFile is a store file whose Sync returns at once.
type noFlushFile struct{ store.File }

func (noFlushFile) Sync() error { return nil }

func (fs atlasFS) Create(name string) (store.File, error) {
	f, err := fs.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return noFlushFile{f}, nil
}

func (fs atlasFS) OpenAppend(name string) (store.File, error) {
	f, err := fs.OS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return noFlushFile{f}, nil
}

func (atlasFS) SyncDir(string) error { return nil }
