module distlouvain/benchmark

go 1.22

require distlouvain v0.0.0

replace distlouvain => ../
