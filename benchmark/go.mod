module cachekv/benchmark

go 1.23

require cachekv v0.0.0

replace cachekv => ../
