# Development entry points. `make check` is the full gate: vet, build,
# and the test suite under the race detector.

GO ?= go

.PHONY: check vet build test race bench bench-smoke

check: vet build race

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# bench/ is its own module (replace spnet => ../), so `./...` above never
# builds it: this is what catches an internal/... API change that breaks the
# repository benchmark's build.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
