__device__ int pf_min3(int a, int b, int c) {
    int m = a;
    if (b < m) {
        m = b;
    }
    if (c < m) {
        m = c;
    }
    return m;
}

__global__ void pf(int* wall, int* src, int* dst, int cols, int rows, int startStep, int pyramidHeight) {
    __shared__ int prev[256];
    __shared__ int result[256];
    int tx = threadIdx.x;
    int blkX = blockIdx.x * blockDim.x;
    int xidx = blkX + tx;
    int valid = 0;
    if (xidx < cols) {
        valid = 1;
        prev[tx] = src[xidx];
    } else {
        prev[tx] = 1000000000;
    }
    __syncthreads();
    for (int i = 0; i < pyramidHeight; ++i) {
        int step = startStep + i;
        int computed = 0;
        int shortest = 0;
        if (valid == 1) {
            if (step < rows) {
                int left = tx - 1;
                int right = tx + 1;
                int center = prev[tx];
                int best = center;
                if (left >= 0) {
                    if (prev[left] < best) {
                        best = prev[left];
                    }
                }
                if (right < blockDim.x) {
                    if (blkX + right < cols) {
                        if (prev[right] < best) {
                            best = prev[right];
                        }
                    }
                }
                shortest = best + wall[step * cols + xidx];
                computed = 1;
            }
        }
        __syncthreads();
        if (computed == 1) {
            result[tx] = shortest;
        } else {
            result[tx] = prev[tx];
        }
        __syncthreads();
        prev[tx] = result[tx];
        __syncthreads();
    }
    if (valid == 1) {
        dst[xidx] = prev[tx];
    }
}

__device__ void pf_flep_task(int* wall, int* src, int* dst, int cols, int rows, int startStep, int pyramidHeight, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    __shared__ int prev[256];
    __shared__ int result[256];
    int tx = threadIdx.x;
    int blkX = flep_bx * blockDim.x;
    int xidx = blkX + tx;
    int valid = 0;
    if (xidx < cols) {
        valid = 1;
        prev[tx] = src[xidx];
    } else {
        prev[tx] = 1000000000;
    }
    __syncthreads();
    for (int i = 0; i < pyramidHeight; ++i) {
        int step = startStep + i;
        int computed = 0;
        int shortest = 0;
        if (valid == 1) {
            if (step < rows) {
                int left = tx - 1;
                int right = tx + 1;
                int center = prev[tx];
                int best = center;
                if (left >= 0) {
                    if (prev[left] < best) {
                        best = prev[left];
                    }
                }
                if (right < blockDim.x) {
                    if (blkX + right < cols) {
                        if (prev[right] < best) {
                            best = prev[right];
                        }
                    }
                }
                shortest = best + wall[step * cols + xidx];
                computed = 1;
            }
        }
        __syncthreads();
        if (computed == 1) {
            result[tx] = shortest;
        } else {
            result[tx] = prev[tx];
        }
        __syncthreads();
        prev[tx] = result[tx];
        __syncthreads();
    }
    if (valid == 1) {
        dst[xidx] = prev[tx];
    }
}

__global__ void pf_flep(int* wall, int* src, int* dst, int cols, int rows, int startStep, int pyramidHeight, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
    __shared__ int flep_task;
    __shared__ int flep_stop;
    while (1) {
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            if (*flep_preempt != 0) {
                flep_stop = 1;
            } else {
                flep_stop = 0;
            }
        }
        __syncthreads();
        if (flep_stop == 1) {
            return;
        }
        for (int flep_i = 0; flep_i < flep_L; ++flep_i) {
            if (threadIdx.x == 0 && threadIdx.y == 0) {
                flep_task = atomicAdd(flep_next_task, 1);
            }
            __syncthreads();
            if (flep_task >= flep_num_tasks) {
                return;
            }
            pf_flep_task(wall, src, dst, cols, rows, startStep, pyramidHeight, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
