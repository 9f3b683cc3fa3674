module bellflower/benchmark

go 1.22

require bellflower v0.0.0

replace bellflower => ../
