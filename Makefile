# Developer entry points. Everything is standard library; plain `go build
# ./...` always works — these targets just package the common invocations.

GO ?= go

.PHONY: build test race bench vet clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench: the micro-benchmarks at the default benchtime, six samples each,
# printed to stdout for benchstat (`make bench > new.txt`). End-to-end
# workloads live in benchmark/ (see benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 . ./internal/iommu ./internal/interrupts ./internal/cpu ./internal/nic ./internal/sim

clean:
	rm -f *.cpu.pprof *.heap.pprof
