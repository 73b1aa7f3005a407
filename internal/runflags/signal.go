package runflags

import (
	"os"
	"os/signal"
	"syscall"
)

// NotifyInterrupt registers for SIGINT/SIGTERM and returns the delivery
// channel plus a stop function releasing the registration. Drivers use it
// for graceful shutdown: on delivery they record the signal in the flight
// recorder and return through their normal teardown (deferred closes and
// flight dump) instead of dying in the runtime's default handler.
func NotifyInterrupt() (<-chan os.Signal, func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}
