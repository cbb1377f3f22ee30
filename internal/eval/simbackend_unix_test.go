//go:build unix

package eval

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// First touch of a trace must not stall the backend's other cells: while
// one caller sits in a load that does not return (a FIFO nobody writes
// to), a cell on another key is still simulated.
func TestSimBackendFirstTouchDoesNotStall(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "trace.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	sb := NewSimBackend(NewAnalyticBackend())
	loaded := make(chan error, 1)
	go func() {
		_, err := sb.trace(fifo)
		loaded <- err
	}()
	defer func() {
		// Let the loader go: a writer that says nothing is an empty trace.
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := <-loaded; err == nil {
			t.Error("an empty trace loaded")
		}
	}()

	for entered := false; !entered; time.Sleep(time.Millisecond) {
		sb.mu.Lock()
		_, entered = sb.traces[fifo]
		sb.mu.Unlock()
	}
	built := make(chan error, 1)
	go func() {
		_, err := sb.Evaluate(context.Background(), bftScenario(true))
		built <- err
	}()
	select {
	case err := <-built:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cell waited for another key's trace load")
	}
}
