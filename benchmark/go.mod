module peats/benchmark

go 1.24

require peats v0.0.0

replace peats => ../
