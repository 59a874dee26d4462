package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// leakCheck makes t fail unless every goroutine started after the call —
// nodes, clients, telemetry servers, replay and fault drivers, controllers —
// has exited once t and its subtests are done.
func leakCheck(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		err := await("wind down", func() string {
			runtime.GC()
			if n := runtime.NumGoroutine(); n > before {
				return fmt.Sprintf("%d goroutines running, %d before the test", n, before)
			}
			return ""
		})
		if err != nil {
			buf := make([]byte, 1<<16)
			t.Errorf("%v\n%s", err, buf[:runtime.Stack(buf, true)])
		}
	})
}
