__global__ void nn(float* locations, float* distances, int numRecords, float lat, float lng) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < numRecords) {
        float dx = locations[gid * 2] - lat;
        float dy = locations[gid * 2 + 1] - lng;
        distances[gid] = sqrtf(dx * dx + dy * dy);
    }
}

__device__ void nn_flep_task(float* locations, float* distances, int numRecords, float lat, float lng, int flep_bx, int flep_by, int flep_grid_x, int flep_grid_y) {
    int gid = flep_bx * blockDim.x + threadIdx.x;
    if (gid < numRecords) {
        float dx = locations[gid * 2] - lat;
        float dy = locations[gid * 2 + 1] - lng;
        distances[gid] = sqrtf(dx * dx + dy * dy);
    }
}

__global__ void nn_flep(float* locations, float* distances, int numRecords, float lat, float lng, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y) {
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
        nn_flep_task(locations, distances, numRecords, lat, lng, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
        __syncthreads();
    }
}
