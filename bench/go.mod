// The benchmark is a module of its own, so that the repository's
// build, vet and test commands leave it alone and it needs no line in
// the repository's go.mod. Its import path lies under the
// repository's, which is what lets the traced replay call the
// internal packages.
module github.com/reliable-cda/cda/bench

go 1.22

require github.com/reliable-cda/cda v0.0.0

replace github.com/reliable-cda/cda => ../
