// The benchmark is a module of its own so that it builds from its own
// directory; the path prefix spnet/ is what lets it import spnet/internal/...
module spnet/bench

go 1.22

require spnet v0.0.0

replace spnet => ../
