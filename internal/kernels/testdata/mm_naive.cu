__global__ void mm(float* a, float* b, float* c, int m, int n, int k) {
    __shared__ float tileA[256];
    __shared__ float tileB[256];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = blockIdx.y * 16 + ty;
    int col = blockIdx.x * 16 + tx;
    float acc = 0.0;
    int numTiles = (k + 15) / 16;
    for (int t = 0; t < numTiles; ++t) {
        int aCol = t * 16 + tx;
        int bRow = t * 16 + ty;
        if (row < m) {
            if (aCol < k) {
                tileA[ty * 16 + tx] = a[row * k + aCol];
            } else {
                tileA[ty * 16 + tx] = 0.0;
            }
        } else {
            tileA[ty * 16 + tx] = 0.0;
        }
        if (bRow < k) {
            if (col < n) {
                tileB[ty * 16 + tx] = b[bRow * n + col];
            } else {
                tileB[ty * 16 + tx] = 0.0;
            }
        } else {
            tileB[ty * 16 + tx] = 0.0;
        }
        __syncthreads();
        for (int p = 0; p < 16; ++p) {
            acc += tileA[ty * 16 + p] * tileB[p * 16 + tx];
        }
        __syncthreads();
    }
    if (row < m) {
        if (col < n) {
            c[row * n + col] = acc;
        }
    }
}

__device__ void mm_flep_task(float* a, float* b, float* c, int m, int n, int k, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    __shared__ float tileA[256];
    __shared__ float tileB[256];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = flep_by * 16 + ty;
    int col = flep_bx * 16 + tx;
    float acc = 0.0;
    int numTiles = (k + 15) / 16;
    for (int t = 0; t < numTiles; ++t) {
        int aCol = t * 16 + tx;
        int bRow = t * 16 + ty;
        if (row < m) {
            if (aCol < k) {
                tileA[ty * 16 + tx] = a[row * k + aCol];
            } else {
                tileA[ty * 16 + tx] = 0.0;
            }
        } else {
            tileA[ty * 16 + tx] = 0.0;
        }
        if (bRow < k) {
            if (col < n) {
                tileB[ty * 16 + tx] = b[bRow * n + col];
            } else {
                tileB[ty * 16 + tx] = 0.0;
            }
        } else {
            tileB[ty * 16 + tx] = 0.0;
        }
        __syncthreads();
        for (int p = 0; p < 16; ++p) {
            acc += tileA[ty * 16 + p] * tileB[p * 16 + tx];
        }
        __syncthreads();
    }
    if (row < m) {
        if (col < n) {
            c[row * n + col] = acc;
        }
    }
}

__global__ void mm_flep(float* a, float* b, float* c, int m, int n, int k, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y) {
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
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            flep_task = atomicAdd(flep_next_task, 1);
        }
        __syncthreads();
        if (flep_task >= flep_num_tasks) {
            return;
        }
        mm_flep_task(a, b, c, m, n, k, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
        __syncthreads();
    }
}
