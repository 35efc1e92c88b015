package fs

import (
	"fmt"
	"testing"

	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func TestOpenWithoutAccessModeRejected(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "x", OpenCreate, 4096); err == nil {
			t.Fatal("open without read/write mode succeeded")
		}
	})
}

// TestOpenNameLengthOverflow: a name length for which 16+length wraps
// is a bad argument, and the service goes on serving.
func TestOpenNameLengthOverflow(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		d, err := st.client.Call(tk, st.open, []wire.ImmArg{
			proc.U64Arg(0, OpenRead|OpenWrite|OpenCreate),
			proc.U64Arg(8, 1<<63-8),
			proc.BytesArg(16, []byte("f")),
		}, nil, SlotCont)
		if err != nil {
			t.Error(err)
			return
		}
		if s := d.U64(0); s != StatusBadArg {
			t.Errorf("status = %d, want bad-arg", s)
		}
		if _, err := OpenFile(tk, st.client, st.open, "f", OpenRead|OpenWrite|OpenCreate, 4096); err != nil {
			t.Errorf("open after the overflow: %v", err)
		}
	})
}

func TestCreateTooLargeRejected(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		huge := uint64(MaxExtents+1) * ExtentSize
		if _, err := OpenFile(tk, st.client, st.open, "huge", OpenRead|OpenWrite|OpenCreate, huge); err == nil {
			t.Fatal("file beyond MaxExtents created")
		}
	})
}

func TestCloseUnknownHandle(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f := &File{p: st.client, Handle: 9999}
		if err := f.Close(tk, st.close_); err == nil {
			t.Fatal("close of unknown handle succeeded")
		}
	})
}

func TestZeroLengthIORejected(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "z", OpenRead|OpenWrite|OpenCreate, 4096)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, 16)
		if err := f.ReadAt(tk, 0, 0, mem); err == nil {
			t.Fatal("zero-length read succeeded")
		}
	})
}

// TestConcurrentFSClients: several clients hammer distinct files
// through the same FS service; everything round-trips, exercising the
// staging pool and queue-depth paths.
func TestConcurrentFSClients(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		const clients = 6
		var wg sim.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			c := c
			st.cl.K.Spawn("fs-client", func(ct *sim.Task) {
				defer wg.Done()
				name := fmt.Sprintf("file-%d", c)
				f, err := OpenFile(ct, st.client, st.open, name, OpenRead|OpenWrite|OpenCreate, 256<<10)
				if err != nil {
					t.Errorf("client %d open: %v", c, err)
					return
				}
				n := uint64(64 << 10)
				off, err := st.client.Alloc(int(2 * n))
				if err != nil {
					t.Errorf("client %d alloc: %v", c, err)
					return
				}
				buf := st.client.Arena()[off : off+int(n)]
				for i := range buf {
					buf[i] = byte(c + i)
				}
				src, err := st.client.MemoryCreate(ct, uint64(off), n, 0xf)
				if err != nil {
					t.Error(err)
					return
				}
				dst, err := st.client.MemoryCreate(ct, uint64(off)+n, n, 0xf)
				if err != nil {
					t.Error(err)
					return
				}
				if err := f.WriteAt(ct, 4096, n, src); err != nil {
					t.Errorf("client %d write: %v", c, err)
					return
				}
				if err := f.ReadAt(ct, 4096, n, dst); err != nil {
					t.Errorf("client %d read: %v", c, err)
					return
				}
				out := st.client.Arena()[off+int(n) : off+2*int(n)]
				for i := range out {
					if out[i] != byte(c+i) {
						t.Errorf("client %d: data corrupted at %d", c, i)
						return
					}
				}
			})
		}
		wg.Wait(tk)
	})
}

// TestDAXWriteOnlyOpen: a write-only DAX open can write but not read.
func TestDAXWriteOnlyOpen(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "wo", OpenRead|OpenWrite|OpenCreate, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(tk, st.client, st.open, "wo", OpenWrite|OpenDAX, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, 4096)
		if err := f.WriteAt(tk, 0, 4096, mem); err != nil {
			t.Fatalf("write-only DAX write: %v", err)
		}
		if err := f.ReadAt(tk, 0, 4096, mem); err == nil {
			t.Fatal("write-only DAX open allowed a read")
		}
	})
}

// TestFSWrongSizeMemoryRejected: the FS requires the data capability
// to match the transfer exactly.
func TestFSWrongSizeMemoryRejected(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "sz", OpenRead|OpenWrite|OpenCreate, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, 4096)
		err = f.ReadAt(tk, 0, 8192, mem) // 8K read into a 4K capability
		if err == nil {
			t.Fatal("size-mismatched read succeeded")
		}
		if !wire.IsStatus(err, wire.StatusOK) && err == nil {
			t.Fatal("unexpected nil")
		}
	})
}

// TestConcurrentCreateSameFile: two simultaneous creates of the same
// name must yield exactly one file — both opens succeed against the
// same extents, and no volumes leak.
func TestConcurrentCreateSameFile(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		var wg sim.WaitGroup
		wg.Add(2)
		files := make([]*File, 2)
		for i := 0; i < 2; i++ {
			i := i
			st.cl.K.Spawn("creator", func(ct *sim.Task) {
				defer wg.Done()
				f, err := OpenFile(ct, st.client, st.open, "racy.bin",
					OpenRead|OpenWrite|OpenCreate, 2<<20)
				if err != nil {
					t.Errorf("creator %d: %v", i, err)
					return
				}
				files[i] = f
			})
		}
		wg.Wait(tk)
		if files[0] == nil || files[1] == nil {
			return
		}
		// Both handles address the same file: a write through one is
		// visible through the other.
		payload := []byte("one file, two opens")
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, uint64(len(payload)))
		if err := files[0].WriteAt(tk, 0, uint64(len(payload)), src); err != nil {
			t.Fatal(err)
		}
		dst := st.mem(tk, t, 4096, uint64(len(payload)))
		if err := files[1].ReadAt(tk, 0, uint64(len(payload)), dst); err != nil {
			t.Fatal(err)
		}
		if string(st.client.Arena()[4096:4096+len(payload)]) != string(payload) {
			t.Fatal("the two opens do not share one file")
		}
	})
}
