package repro.geo

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.traj.Datasets
import scala.util.Random

class STRtreeSpec extends AnyFunSuite {
  private val rnd = new Random(7)

  private def randomSegments(n: Int): Array[Segment] =
    Array.tabulate(n) { i =>
      val a = XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)
      val b = XY(a.x + rnd.nextDouble() * 200 - 100, a.y + rnd.nextDouble() * 200 - 100)
      Segment(i, 0, 0, a, b, a.dist(b))
    }

  /** The first k segments sorted by `Double.compare` on their distance
    * from `p`, then by id: what `nearest(p, k)` must return.
    */
  private def bruteTopK(segs: Array[Segment], p: XY, k: Int): Candidates = {
    val first = segs.map(s => (Geo.pointSegDist(p, s.a, s.b), s.id)).sortBy(e => (e._1, e._2)).take(k)
    Candidates(first.map(_._2), first.map(_._1))
  }

  test("top-1 matches brute force on 500 random queries") {
    val segs = randomSegments(400)
    val tree = STRtree.build(segs)
    (1 to 500).foreach { _ =>
      val p = XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)
      assert(tree.nearest(p, 1).ids.toSeq == bruteTopK(segs, p, 1).ids.toSeq)
    }
  }

  test("top-10 matches brute force on 200 random queries") {
    val segs = randomSegments(700)
    val tree = STRtree.build(segs)
    (1 to 200).foreach { _ =>
      val p = XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)
      assert(tree.nearest(p, 10).ids.toSeq == bruteTopK(segs, p, 10).ids.toSeq)
    }
  }

  test("results are sorted by ascending distance") {
    val segs = randomSegments(300)
    val tree = STRtree.build(segs)
    (1 to 100).foreach { _ =>
      val p = XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)
      val ds = tree.nearest(p, 8).dists
      assert(ds.sliding(2).forall(w => w.length < 2 || w(0) <= w(1) + 1e-12))
    }
  }

  test("returned distances are the point-to-segment distances of the returned ids, bit for bit") {
    val segs = randomSegments(300)
    val tree = STRtree.build(segs)
    (1 to 100).foreach { _ =>
      val p = XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)
      val c = tree.nearest(p, 10)
      assert(c.ids.length == 10 && c.dists.length == 10)
      c.ids.indices.foreach { j =>
        val s = segs(c.ids(j))
        assert(c.dists(j) == Geo.pointSegDist(p, s.a, s.b))
      }
    }
  }

  /** Asserts that `STRtree` over `segs` returns [[bruteTopK]]'s ids and
    * distance bits for every k in `ks` at every query point; returns how
    * many adjacent results tie on distance.
    */
  private def sameAsBruteForce(segs: Array[Segment], queries: Seq[XY],
      ks: Seq[Int] = Seq(1, 8, 10, 40, 64, 100)): Int = {
    val tree = STRtree.build(segs)
    var ties = 0
    for (p <- queries) {
      val all = bruteTopK(segs, p, ks.max)
      for (k <- ks) {
        val got = tree.nearest(p, k)
        val want = Candidates(all.ids.take(k), all.dists.take(k))
        assert(got.ids.sameElements(want.ids), s"k=$k at $p: ids ${got.ids.toSeq} vs ${want.ids.toSeq}")
        assert(got.dists.map(java.lang.Double.doubleToLongBits).sameElements(
          want.dists.map(java.lang.Double.doubleToLongBits)), s"k=$k at $p: distances")
        ties += (1 until want.dists.length).count(i => want.dists(i) == want.dists(i - 1))
      }
    }
    ties
  }

  test("top-k equals the brute-force sort on the XA and BJ networks, ties included") {
    // Two-way roads are two segments over one line, and segments meet at
    // shared nodes, so equal distances are everywhere: at nodes, on
    // segments and off the network.
    Seq("XA", "BJ").foreach { city =>
      val net = Datasets(city).net
      val rnd = new Random(11)
      val xs = net.nodes.map(_.x); val ys = net.nodes.map(_.y)
      val offNet = Seq.fill(600)(XY(xs.min - 200 + rnd.nextDouble() * (xs.max - xs.min + 400),
        ys.min - 200 + rnd.nextDouble() * (ys.max - ys.min + 400)))
      val onNet = net.segments.toSeq.filter(_ => rnd.nextInt(4) == 0).map(s => Geo.lerp(s.a, s.b, rnd.nextDouble()))
      val ties = sameAsBruteForce(net.segments, offNet ++ net.nodes ++ onNet)
      assert(ties > 1000, s"$city: only $ties ties")
    }
  }

  test("top-k equals the brute-force sort on random segments") {
    val segs = randomSegments(700)
    sameAsBruteForce(segs, Seq.fill(500)(XY(rnd.nextDouble() * 5000, rnd.nextDouble() * 5000)) ++ segs.map(_.a))
  }

  test("a segment nearer than the k-th best by a relative 1e-3 to 1e-15 still enters the top k") {
    // Parallel segments 10 m and 10·(1 - g) m from the query: the nearer one
    // must displace the farther one however small g is, so the squared-offset
    // rejection may only drop candidates that are not nearer.
    Seq(1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14, 1e-15).foreach { g =>
      val ys = Seq(10.0, 10.0 + 10 * g, 10.0 - 10 * g, 10.0 + 20 * g)
      Seq(ys, ys.reverse).foreach { order =>
        val segs = order.zipWithIndex.map { case (y, i) => Segment(i, 0, 1, XY(-5, y), XY(5, y), 10) }.toArray
        val queries = Seq(XY(0, 20), XY(0, 0), XY(1, 20 + 3 * g))
        sameAsBruteForce(segs, queries)
        val tree = STRtree.build(segs)
        assert(tree.nearest(XY(0, 20), 1).ids.toSeq == Seq(order.indexOf(10.0 + 20 * g)), s"g=$g")
      }
    }
  }

  test("ties at the k-th distance go to the smallest ids, also in a branch expanded after the first k are full") {
    // 300 segments from (0, 10) rightwards, the smallest ids reaching
    // farthest right (so packed into the rightmost leaves), and 16 from the
    // y axis leftwards, 8 at y = -5 and 8 at y = 10 (packed into one leaf).
    // From the origin the leftward leaf is searched first and fills the
    // first k with ids 300 and up; every rightward segment and box is at
    // exactly the k-th distance 10 but holds a smaller id.
    val right = Array.tabulate(300)(i => Segment(i, 0, 1, XY(0, 10), XY(10.0 * (301 - i), 10), 10.0 * (301 - i)))
    val left = Array.tabulate(16) { i =>
      val y = if (i < 8) -5.0 else 10.0
      Segment(300 + i, 0, 1, XY(0, y), XY(-10.0 * (i + 1), y), 10.0 * (i + 1))
    }
    sameAsBruteForce(right ++ left, Seq(XY(0, 0)), Seq(1, 8, 9, 10, 24, 40))
  }

  test("several segments tied at the k-th distance: the brute-force sort, at exact ties") {
    // Segments start at integer offsets (3, 4)·s, (5, 12)·s, (r, 0) and the
    // like from an integer query point and run radially outwards, so each
    // one's nearest point is its start and its distance an integer r: many
    // segments share each distance, and the k-th often ties the (k+1)-th.
    val rnd = new Random(23)
    val offsets = for {
      (a, b, r) <- Seq((3, 4, 5), (5, 12, 13), (8, 15, 17), (0, 10, 10), (6, 8, 10), (0, 13, 13))
      (x, y) <- Seq((a, b), (b, a))
      (sx, sy) <- Seq((1, 1), (1, -1), (-1, 1), (-1, -1))
    } yield (sx * x, sy * y, r)
    var straddles = 0
    (1 to 40).foreach { q =>
      val p = XY(200 + rnd.nextInt(600), 200 + rnd.nextInt(600))
      val tied = Array.tabulate(60) { i =>
        val (ox, oy, r) = offsets(rnd.nextInt(offsets.length))
        val a = XY(p.x + ox, p.y + oy)
        val u = 1 + rnd.nextInt(5)
        Segment(i, 0, 1, a, XY(a.x + ox * u, a.y + oy * u), r * u)
      }
      val noise = Array.tabulate(140) { i =>
        val a = XY(rnd.nextDouble() * 1000, rnd.nextDouble() * 1000)
        Segment(60 + i, 0, 1, a, XY(a.x + rnd.nextDouble() * 60 - 30, a.y + rnd.nextDouble() * 60 - 30), 60)
      }
      // Shuffled ids, so the tied segments' ids are spread over the leaves.
      val perm = rnd.shuffle((0 until 200).toIndexedSeq)
      val segs = (tied ++ noise).map(s => s.copy(id = perm(s.id))).sortBy(_.id)
      val ks = Seq(1, 3, 5, 8, 10, 16, 40)
      sameAsBruteForce(segs, Seq(p), ks)
      val all = bruteTopK(segs, p, ks.max + 1)
      straddles += ks.count(k => all.dists(k - 1) == all.dists(k))
    }
    assert(straddles > 100, s"only $straddles ties at the k-th distance")
  }

  test("queries inside leaf boxes, with a zero box offset on one axis: the brute-force sort") {
    // A query level with a segment's end on one axis lies inside its leaf's
    // box on that axis, so the box's squared offset is the other axis's
    // square alone; queries on segments are inside on both.
    val segs = randomSegments(700)
    val rnd = new Random(29)
    val onAxis = segs.toSeq.filter(_ => rnd.nextInt(5) == 0).flatMap { s =>
      Seq(XY(s.a.x, rnd.nextDouble() * 5000), XY(rnd.nextDouble() * 5000, s.b.y))
    }
    val inside = segs.toSeq.filter(_ => rnd.nextInt(5) == 0).map(s => Geo.lerp(s.a, s.b, rnd.nextDouble()))
    sameAsBruteForce(segs, onAxis ++ inside)
  }

  test("k larger than segment count returns all segments") {
    val segs = randomSegments(5)
    val tree = STRtree.build(segs)
    assert(tree.nearest(XY(0, 0), 50).ids.length == 5)
  }

  test("k = 0 and empty input behave") {
    val segs = randomSegments(10)
    val tree = STRtree.build(segs)
    assert(tree.nearest(XY(0, 0), 0).ids.isEmpty)
    intercept[IllegalArgumentException](STRtree.build(Array.empty[Segment]))
  }

  test("single-segment tree") {
    val s = Segment(0, 0, 1, XY(0, 0), XY(10, 0), 10)
    val tree = STRtree.build(Array(s))
    val c = tree.nearest(XY(5, 3), 3)
    assert(c.ids.toSeq == Seq(0))
    assert(math.abs(c.dists(0) - 3.0) < 1e-12)
  }

  test("four threads querying two trees at once each get the brute-force answers") {
    // Every query on a thread reuses that thread's frontier heap, whichever
    // tree it searches.
    val nets = Seq("XA", "BJ").map(Datasets(_).net)
    val trees = nets.map(n => STRtree.build(n.segments))
    val rnd = new Random(19)
    val queries = IndexedSeq.fill(400) {
      val i = rnd.nextInt(nets.length); val n = nets(i)
      (i, XY(n.minX + rnd.nextDouble() * (n.maxX - n.minX), n.minY + rnd.nextDouble() * (n.maxY - n.minY)),
        Seq(1, 10, 40, 64)(rnd.nextInt(4)))
    }
    def bits(c: Candidates): (Seq[Int], Seq[Long]) = (c.ids.toSeq, c.dists.toSeq.map(java.lang.Double.doubleToRawLongBits))
    def answers(): IndexedSeq[(Seq[Int], Seq[Long])] = queries.map { case (i, p, k) => bits(trees(i).nearest(p, k)) }
    val want = queries.map { case (i, p, k) => bits(bruteTopK(nets(i).segments, p, k)) }
    assert(answers() == want)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val start = new CountDownLatch(1)
      val futures = (1 to 4).map(_ => pool.submit(new Callable[IndexedSeq[(Seq[Int], Seq[Long])]] {
        def call(): IndexedSeq[(Seq[Int], Seq[Long])] = { start.await(); answers() }
      }))
      start.countDown()
      futures.foreach(f => assert(f.get(5, TimeUnit.MINUTES) == want))
    } finally pool.shutdownNow()
  }
}
