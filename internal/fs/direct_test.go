package fs

import (
	"bytes"
	"testing"

	"fractos/internal/device/nvme"
	"fractos/internal/sim"
)

func TestDirectReadWriteRoundTrip(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "direct.bin", OpenRead|OpenWrite|OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("composed"), 2048) // 16 KiB
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, uint64(len(payload)))
		if err := f.DirectWriteAt(tk, 8192, uint64(len(payload)), src); err != nil {
			t.Fatalf("direct write: %v", err)
		}
		dst := st.mem(tk, t, 1<<20, uint64(len(payload)))
		if err := f.DirectReadAt(tk, 8192, uint64(len(payload)), dst); err != nil {
			t.Fatalf("direct read: %v", err)
		}
		if !bytes.Equal(st.client.Arena()[1<<20:(1<<20)+len(payload)], payload) {
			t.Fatal("direct round trip corrupted data")
		}
		// And FS-mode reads see the same bytes: the composition wrote
		// through the same volume.
		dst2 := st.mem(tk, t, 2<<20, uint64(len(payload)))
		if err := f.ReadAt(tk, 8192, uint64(len(payload)), dst2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.client.Arena()[2<<20:(2<<20)+len(payload)], payload) {
			t.Fatal("FS-mode read disagrees with direct write")
		}
	})
}

// TestDirectBypassesFSDataPath: the composed request must not move the
// payload through the FS node — only control traffic touches it.
func TestDirectBypassesFSDataPath(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		const n = 256 << 10
		f, err := OpenFile(tk, st.client, st.open, "bypass.bin", OpenRead|OpenWrite|OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, n)

		// FS-mode read: data crosses twice (device→FS, FS→client).
		before := st.cl.Net.Stats()
		if err := f.ReadAt(tk, 0, n, mem); err != nil {
			t.Fatal(err)
		}
		fsBytes := st.cl.Net.Stats().Sub(before).CrossNodeDataBytes

		// Direct read: data crosses once (device→client).
		before = st.cl.Net.Stats()
		if err := f.DirectReadAt(tk, 0, n, mem); err != nil {
			t.Fatal(err)
		}
		directBytes := st.cl.Net.Stats().Sub(before).CrossNodeDataBytes

		if directBytes*2 > fsBytes+n/4 {
			t.Errorf("direct read moved %d bytes cross-node; FS mode moved %d (expected ~half)",
				directBytes, fsBytes)
		}
	})
}

func TestDirectFasterThanFSMode(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		const n = 256 << 10
		f, err := OpenFile(tk, st.client, st.open, "fast.bin", OpenRead|OpenWrite|OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, n)
		start := tk.Now()
		if err := f.ReadAt(tk, 0, n, mem); err != nil {
			t.Fatal(err)
		}
		fsTime := tk.Now() - start
		start = tk.Now()
		if err := f.DirectReadAt(tk, 0, n, mem); err != nil {
			t.Fatal(err)
		}
		directTime := tk.Now() - start
		if directTime >= fsTime {
			t.Errorf("direct read (%v) not faster than FS mode (%v)", directTime, fsTime)
		}
	})
}

func TestDirectRespectsOpenMode(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "ro2.bin", OpenRead|OpenWrite|OpenCreate, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(tk, st.client, st.open, "ro2.bin", OpenRead, 0)
		if err != nil {
			t.Fatal(err)
		}
		mem := st.mem(tk, t, 0, 4096)
		if err := f.DirectWriteAt(tk, 0, 4096, mem); err == nil {
			t.Fatal("direct write through read-only open succeeded")
		}
		if err := f.DirectReadAt(tk, 0, 4096, mem); err != nil {
			t.Fatalf("direct read through read-only open failed: %v", err)
		}
	})
}

func TestDirectRejectsExtentCrossing(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "span.bin", OpenRead|OpenWrite|OpenCreate, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(64 << 10)
		mem := st.mem(tk, t, 0, n)
		// A span straddling the extent boundary must be refused (one
		// block Request serves one volume).
		if err := f.DirectReadAt(tk, ExtentSize-n/2, n, mem); err == nil {
			t.Fatal("extent-crossing direct read succeeded")
		}
	})
}

func TestDirectUnavailableOnNVMeoFBackend(t *testing.T) {
	// The Disaggregated Baseline's backend cannot compose: its Volume
	// is not a ComposableVolume.
	var v Volume = &nvmeofStub{}
	if _, ok := v.(ComposableVolume); ok {
		t.Fatal("stub should not be composable")
	}
}

// nvmeofStub mimics a non-composable backend volume.
type nvmeofStub struct{}

func (*nvmeofStub) ReadAt(uint64, uint64, nvme.Stage, Waiter)  {}
func (*nvmeofStub) WriteAt(uint64, uint64, nvme.Stage, Waiter) {}
