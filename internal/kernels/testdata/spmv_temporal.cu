__global__ void spmv(float* vals, int* cols, int* rowPtr, float* x, float* y, int numRows) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    if (row < numRows) {
        float dot = 0.0;
        int start = rowPtr[row];
        int end = rowPtr[row + 1];
        for (int j = start; j < end; ++j) {
            int col = cols[j];
            float val = vals[j];
            dot += val * x[col];
        }
        y[row] = dot;
    }
}

__device__ void spmv_flep_task(float* vals, int* cols, int* rowPtr, float* x, float* y, int numRows, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int row = flep_bx * blockDim.x + threadIdx.x;
    if (row < numRows) {
        float dot = 0.0;
        int start = rowPtr[row];
        int end = rowPtr[row + 1];
        for (int j = start; j < end; ++j) {
            int col = cols[j];
            float val = vals[j];
            dot += val * x[col];
        }
        y[row] = dot;
    }
}

__global__ void spmv_flep(float* vals, int* cols, int* rowPtr, float* x, float* y, int numRows, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
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
            spmv_flep_task(vals, cols, rowPtr, x, y, numRows, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
            __syncthreads();
        }
    }
}
